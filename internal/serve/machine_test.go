package serve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"lcigraph/internal/comm"
	"lcigraph/internal/graph"
	"lcigraph/internal/telemetry"
)

// goldenGraph is the fixed input of the answer goldens: a 512-vertex web
// graph with Zipf hubs and parallel edges.
func goldenGraph() *graph.Graph { return graph.Web(9, 8, 11, 0) }

// goldenAnswers pins the Oracle's answer bytes (hex) for a fixed query
// table on goldenGraph at the default Config. A change to a serving state
// machine must leave every entry byte-identical: the distributed path is
// checked against the Oracle, so a drift here would go unnoticed there.
var goldenAnswers = []struct {
	q    Query
	want string
}{
	{Query{OpKHop, 0, 1}, "05000000"},
	{Query{OpKHop, 0, 3}, "3d000000"},
	{Query{OpKHop, 37, 2}, "11000000"},
	{Query{OpKHop, 100, 0}, "01000000"},
	{Query{OpKHop, 255, 4}, "90000000"},
	{Query{OpKHop, 511, 8}, "e7010000"},
	{Query{OpDist, 0, 1}, "01000000"},
	{Query{OpDist, 5, 400}, "ffffffff"},
	{Query{OpDist, 37, 37}, "00000000"},
	{Query{OpDist, 200, 3}, "02000000"},
	{Query{OpDist, 511, 0}, "02000000"},
	{Query{OpDist, 64, 300}, "ffffffff"},
	{Query{OpPPR, 0, 5}, "05000000000000006aeb495f29f4c73f0100000051829b1d34b1b23f72000000930c297b2f4ba03fc80100009864718cd24aa03f350000002456ea178649a03f"},
	{Query{OpPPR, 37, 3}, "030000002500000056f01b63013cc33f000000007772a10ef690b73f070000006773bee9c5e4a83f"},
	{Query{OpPPR, 200, 8}, "08000000c8000000e87d7eb11139c33f0b000000fa42fc890cb2c03f00000000ce443a5fcd9eb13f01000000cddc2b4b4450a93f03000000ccb46fe67b748e3fc80100007d1b8167f80f883f72000000c941dcb085f2873f35000000f965a814efef873f"},
	{Query{OpPPR, 511, 1}, "01000000ff010000333333333333c33f"},
	{Query{OpPPR, 300, 10}, "0a0000002c010000333333333333c33f0000000056a72525c3f5ab3f210000007b43d7068c5ba63f01000000f40abe16bbdca53f24010000c2f5285c8fc2a53f37010000c2f5285c8fc2a53f14010000e5d022dbf97ea23f02000000b45f814484a9953fc80100001ae59ca43603833f72000000ad483d6bbe00833f"},
	{Query{OpPPR, 64, 6}, "0600000040000000838d27104634c33f00000000ebdd1b66d063b03f010000000cdeebcadc04ae3f030000000655824575c99d3f07000000b6600c88da83973f1e000000da068134eeee953f"},
}

func TestOracleGoldenAnswers(t *testing.T) {
	o := NewOracle(goldenGraph(), Config{})
	for _, tc := range goldenAnswers {
		got, err := o.Answer(tc.q)
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", OpName(tc.q.Op), tc.q.A, tc.q.B, err)
		}
		if h := hex.EncodeToString(got); h != tc.want {
			t.Errorf("%s(%d,%d) = %s, want %s", OpName(tc.q.Op), tc.q.A, tc.q.B, h, tc.want)
		}
	}
}

// TestAnswersIgnoreAdjacencyOrder: a machine promises the same answer
// bytes whatever order each out-neighbor list arrives in (owner ranks and
// the network make no ordering promise). Every list is shuffled with a
// seeded RNG and the answers must equal the Oracle's.
func TestAnswersIgnoreAdjacencyOrder(t *testing.T) {
	g := goldenGraph()
	cfg := Config{}
	cfg.fill()
	o := NewOracle(g, cfg)
	for _, tc := range goldenAnswers {
		want, err := o.Answer(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m, err := new(machinePool).start(tc.q, g.N, &cfg)
			if err != nil {
				t.Fatal(err)
			}
			for verts := m.need(); len(verts) > 0; verts = m.need() {
				adj := make([][]uint32, len(verts))
				for i, v := range verts {
					l := append([]uint32(nil), g.Neighbors(int(v))...)
					rng.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
					adj[i] = l
				}
				m.advance(adj)
			}
			if got := m.result(); !bytes.Equal(got, want) {
				t.Fatalf("%s(%d,%d) seed %d: shuffled lists gave %x, oracle %x",
					OpName(tc.q.Op), tc.q.A, tc.q.B, seed, got, want)
			}
		}
	}
}

// TestMachineReuseStartsClean: a machine taken back from the pool starts
// from exactly the state a new one has, whichever query of its kind ran on
// it before.
func TestMachineReuseStartsClean(t *testing.T) {
	g := goldenGraph()
	cfg := Config{}
	cfg.fill()
	state := func(m machine) string {
		switch m := m.(type) {
		case *bfsMachine:
			c := *m
			c.next = nil // advance's scratch buffer, refilled before use
			return fmt.Sprintf("%+v", c)
		case *pprMachine:
			return fmt.Sprintf("%+v", *m)
		}
		return ""
	}
	mp := machinePool{max: 2}
	for _, tc := range goldenAnswers {
		m, err := mp.start(tc.q, g.N, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := new(machinePool).start(tc.q, g.N, &cfg)
		if state(m) != state(fresh) {
			t.Fatalf("%s(%d,%d): a reused machine starts from different state",
				OpName(tc.q.Op), tc.q.A, tc.q.B)
		}
		for verts := m.need(); len(verts) > 0; verts = m.need() {
			adj := make([][]uint32, len(verts))
			for i, v := range verts {
				adj[i] = g.Neighbors(int(v))
			}
			m.advance(adj)
		}
		mp.put(m)
	}
	if len(mp.bfs) != 1 || len(mp.ppr) != 1 {
		t.Fatalf("pool holds %d BFS and %d PPR machines, want 1 each", len(mp.bfs), len(mp.ppr))
	}
}

// replyServer is a coordinator over a stub layer with a hand-placed
// resident query whose first round is owed by rank 1.
func replyServer(t *testing.T, q Query) (*Server, *pending) {
	t.Helper()
	j := newStubJob(goldenGraph(), Config{CacheSize: -1, Reg: telemetry.NewEnabled(0)})
	s := j.s[0]
	m, err := s.machines.start(q, s.pt.GlobalN, &s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	verts := m.need()
	p := &pending{
		c: &clientConn{out: make(chan []byte, 4)}, q: q, m: m, qid: 7,
		verts: verts, adj: make([][]uint32, len(verts)),
		slots: [][]int{nil, {0}}, remaining: 1,
	}
	s.queries[p.qid] = p
	return s, p
}

// TestReplyOutOfRangeNeighbor: an adjacency reply naming a neighbor id at
// or beyond the graph size is remote input. onReply must drop and count it
// without a panic (the machines index dense state by global id), leaving
// the query resident and its round still owed.
func TestReplyOutOfRangeNeighbor(t *testing.T) {
	for _, q := range []Query{{OpKHop, 500, 1}, {OpKHop, 500, 3}, {OpDist, 500, 0}, {OpPPR, 500, 4}} {
		s, p := replyServer(t, q)
		bad := [][]uint32{{3, uint32(s.pt.GlobalN) + 5}}
		s.onReply(comm.Message{Peer: 1, Data: encodeLists(heapAlloc, p.qid, bad)})
		if n := s.met.badReplies.Value(); n != 1 {
			t.Fatalf("%s: bad replies counted %d, want 1", OpName(q.Op), n)
		}
		if s.queries[p.qid] != p || p.remaining != 1 || len(p.slots[1]) != 1 {
			t.Fatalf("%s: query advanced on a dropped reply", OpName(q.Op))
		}
	}
}
