package serve

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/graph"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/partition"
)

// stubLayer is an AsyncLayer with no transport. PostTag queues the buffer,
// and the test moves it to the other server by hand and hands it back with
// recycle; AllocBuf reuses recycled buffers, so a warmed stub allocates
// nothing, like the LCI layer's buffer cache.
type stubLayer struct {
	posts [][]byte // FIFO of posted buffers
	spare [][]byte
	tr    memtrack.Tracker
}

func (l *stubLayer) Name() string { return "stub" }
func (l *stubLayer) Exchange(uint32, [][]byte, []bool, []int, func(int, []byte)) {
	panic("stub layer: Exchange")
}
func (l *stubLayer) Tracker() *memtrack.Tracker { return &l.tr }
func (l *stubLayer) Stop()                      {}

func (l *stubLayer) AllocBuf(n int) []byte {
	for i, b := range l.spare {
		if cap(b) >= n {
			l.spare[i] = l.spare[len(l.spare)-1]
			l.spare = l.spare[:len(l.spare)-1]
			return b[:n]
		}
	}
	return make([]byte, n)
}

func (l *stubLayer) PostTag(peer int, tag uint32, buf []byte) { l.posts = append(l.posts, buf) }

func (l *stubLayer) RecvTag(uint32) (comm.Message, bool) { return comm.Message{}, false }

// next pops the oldest posted buffer.
func (l *stubLayer) next() ([]byte, bool) {
	if len(l.posts) == 0 {
		return nil, false
	}
	b := l.posts[0]
	copy(l.posts, l.posts[1:])
	l.posts = l.posts[:len(l.posts)-1]
	return b, true
}

func (l *stubLayer) recycle(b []byte) { l.spare = append(l.spare, b) }

// stubJob is a two-rank serving job over stub layers: rank 0 coordinates,
// rank 1 owns half the graph, and pump carries every post across.
type stubJob struct {
	s [2]*Server
	l [2]*stubLayer
}

func newStubJob(g *graph.Graph, cfg Config) *stubJob {
	pt := partition.Build(g, 2, partition.EdgeCut)
	j := &stubJob{}
	for r := range j.s {
		j.l[r] = &stubLayer{}
		j.s[r] = New(&cluster.Host{Rank: r, P: 2, Layer: j.l[r]}, pt, cfg)
	}
	return j
}

// worker delivers rank 0's oldest sub-query to rank 1.
func (j *stubJob) worker() bool {
	b, ok := j.l[0].next()
	if ok {
		j.s[1].serveAdj(comm.Message{Peer: 0, Data: b})
		j.l[0].recycle(b)
	}
	return ok
}

// coordinator delivers rank 1's oldest reply to rank 0.
func (j *stubJob) coordinator() bool {
	b, ok := j.l[1].next()
	if ok {
		j.s[0].onReply(comm.Message{Peer: 1, Data: b})
		j.l[1].recycle(b)
	}
	return ok
}

// pump carries posts until both ranks are quiet.
func (j *stubJob) pump() {
	for j.worker() || j.coordinator() {
	}
}

// admit hands q to the coordinator as request reqid on c.
func (j *stubJob) admit(c *clientConn, reqid uint32, q Query) {
	j.s[0].handle(request{c: c, reqid: reqid, q: q, start: time.Now()})
}

// answer reads one StatusOK response off c.
func answer(t *testing.T, c *clientConn) (uint32, []byte) {
	t.Helper()
	select {
	case b := <-c.out:
		reqid, status, payload, err := ReadResponse(bytes.NewReader(b))
		if err != nil || status != StatusOK {
			t.Fatalf("response status %d, %v", status, err)
		}
		return reqid, payload
	default:
		t.Fatal("no response")
		return 0, nil
	}
}

// TestServeRecycledStateGolden: one server answers every golden query
// twice, in a shuffled order that mixes the op kinds, with the result cache
// off, so each query runs on a pending struct and a machine that earlier
// queries used. In the second pass all of a pass's queries are resident at
// once. Every answer must equal the Oracle's bytes.
func TestServeRecycledStateGolden(t *testing.T) {
	g := goldenGraph()
	o := NewOracle(g, Config{})
	j := newStubJob(g, Config{CacheSize: -1, MaxPerClient: 64})
	c := &clientConn{out: make(chan []byte, len(goldenAnswers))}
	order := rand.New(rand.NewSource(3)).Perm(len(goldenAnswers))
	check := func(reqid uint32, got []byte) {
		t.Helper()
		q := goldenAnswers[reqid].q
		want, err := o.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s(%d,%d) on recycled state = %x, oracle %x", OpName(q.Op), q.A, q.B, got, want)
		}
	}
	for _, i := range order { // one resident at a time
		j.admit(c, uint32(i), goldenAnswers[i].q)
		j.pump()
		check(answer(t, c))
	}
	if len(j.s[0].free) != 1 || len(j.s[0].machines.bfs) != 1 || len(j.s[0].machines.ppr) != 1 {
		t.Fatalf("pools hold %d queries, %d BFS and %d PPR machines; want 1 each",
			len(j.s[0].free), len(j.s[0].machines.bfs), len(j.s[0].machines.ppr))
	}
	for _, i := range order { // all resident together
		j.admit(c, uint32(i), goldenAnswers[i].q)
	}
	j.pump()
	for range goldenAnswers {
		check(answer(t, c))
	}
	if n := len(j.s[0].queries); n != 0 {
		t.Fatalf("%d queries still resident", n)
	}
}

// TestStaleReplyAfterRecycle: a reply that arrives after its query finished
// carries the old qid. When the query's pending struct has been recycled
// under a new qid, the reply must be dropped and leave the new query's
// round untouched.
func TestStaleReplyAfterRecycle(t *testing.T) {
	g := goldenGraph()
	o := NewOracle(g, Config{})
	j := newStubJob(g, Config{CacheSize: -1})
	c := &clientConn{out: make(chan []byte, 4)}
	// q2 starts like q1, so the stale reply is the size the recycled
	// struct now owes: only its query id can tell them apart.
	q1, q2 := Query{OpKHop, 0, 2}, Query{OpKHop, 0, 3}

	j.admit(c, 1, q1)
	old := j.s[0].queries[0]
	if old == nil || !j.worker() {
		t.Fatal("first query posted no sub-query")
	}
	stale := append([]byte(nil), j.l[1].posts[0]...)
	j.pump()
	answer(t, c)

	j.admit(c, 2, q2)
	p := j.s[0].queries[1]
	if p != old {
		t.Fatal("second query did not reuse the first query's pending struct")
	}
	remaining, owed, round := p.remaining, len(p.slots[1]), p.round
	if remaining != 1 || owed == 0 {
		t.Fatalf("second query owes %d replies, %d vertices", remaining, owed)
	}
	j.s[0].onReply(comm.Message{Peer: 1, Data: stale})
	if p.remaining != remaining || len(p.slots[1]) != owed || p.round != round || len(p.flat) != 0 {
		t.Fatal("a stale reply for a finished query changed the recycled one")
	}
	if n := j.s[0].met.badReplies.Value(); n != 0 {
		t.Fatalf("stale reply counted as bad (%d)", n)
	}
	j.pump()
	_, got := answer(t, c)
	if want, _ := o.Answer(q2); !bytes.Equal(got, want) {
		t.Fatalf("second query = %x, oracle %x", got, want)
	}
}

// TestServeAllocs: once warmed, answering a sub-query allocates nothing,
// and neither does absorbing a reply, advancing the machine and posting the
// next round for a query running on recycled state.
func TestServeAllocs(t *testing.T) {
	g := goldenGraph()
	j := newStubJob(g, Config{CacheSize: -1})
	c := &clientConn{out: make(chan []byte, 4)}
	// PPR from a hub: every round needs vertices from both ranks, for more
	// rounds than the measurement takes.
	q := Query{OpPPR, 0, 5}
	j.admit(c, 1, q)
	j.pump()
	answer(t, c) // the pending struct and a PPR machine are now pooled

	j.admit(c, 2, q)
	req, ok := j.l[0].next()
	if !ok {
		t.Fatal("no sub-query posted")
	}
	serve := func() {
		j.s[1].serveAdj(comm.Message{Peer: 0, Data: req})
		b, _ := j.l[1].next()
		j.l[1].recycle(b)
	}
	if n := testing.AllocsPerRun(20, serve); n != 0 {
		t.Errorf("serveAdj: %.1f allocations per sub-query, want 0", n)
	}
	j.l[0].posts = append(j.l[0].posts[:0], req)
	j.worker()

	p := j.s[0].queries[1]
	round := func() {
		if !j.coordinator() || !j.worker() {
			t.Fatal("query finished inside the measurement")
		}
	}
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Errorf("onReply+advance: %.1f allocations per round, want 0", n)
	}
	if j.s[0].queries[1] != p || p.round < 11 {
		t.Fatalf("query left residence or stalled at round %d", p.round)
	}
}
