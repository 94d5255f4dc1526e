package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcigraph/internal/bench"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/partition"
	"lcigraph/internal/serve"
)

// query-udp: internal/serve on P ranks over loopback UDP, TCP frontend on
// rank 0, serve.Config at its defaults plus a telemetry registry. The client
// is an open loop: query i is due at begin + i/queryQPS on connection
// i mod queryConns, whatever happened to earlier queries, and its latency
// runs from that due time, so a stall also charges the queries queued
// behind it.
const (
	queryQPS   = 100
	queryConns = 2
	// queryGrace is how long the client waits for answers after the last
	// query was due; anything unanswered by then is lost.
	queryGrace = 5 * time.Second
)

// queryGraphSeed fixes the served graph (cmd/lci-serve's default seed): a
// serving job keeps one resident dataset, and --seed varies the traffic.
// Seeding the graph too moved the work per query by ±10% between seeds.
const queryGraphSeed = 42

func queryGraph() *graph.Graph { return graph.Web(12, 43, queryGraphSeed, 64) }

// queryStream draws n queries: 60% k-hop (1–3 hops), 30% BFS distance, 10%
// personalized PageRank top-8, with a third of all vertices drawn from a
// 16-vertex hot set so the result cache sees repeats. The mix is exact in
// every block of ten queries (a shuffled deck, not independent draws), so
// the seed changes which vertices are asked about but not how much of each
// kind of work a segment holds.
func queryStream(seed int64, n, nv int) []serve.Query {
	rng := newRand(seed ^ 0x9e3779b9)
	v := func() uint32 {
		if rng.Intn(3) == 0 {
			return uint32(rng.Intn(16))
		}
		return uint32(rng.Intn(nv))
	}
	deck := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	qs := make([]serve.Query, n)
	for i := range qs {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		switch r := deck[i%len(deck)]; {
		case r < 6:
			qs[i] = serve.Query{Op: serve.OpKHop, A: v(), B: uint32(1 + rng.Intn(3))}
		case r < 9:
			qs[i] = serve.Query{Op: serve.OpDist, A: v(), B: v()}
		default:
			qs[i] = serve.Query{Op: serve.OpPPR, A: v(), B: 8}
		}
	}
	return qs
}

// probeQuery is answered once per cycle before any measured traffic: its
// answer marks the end of set-up (every rank is up and serving).
var probeQuery = serve.Query{Op: serve.OpKHop, A: 0, B: 2}

// queryRef answers queries with the single-host oracle, memoized across a
// run's segments (they run one after another).
type queryRef struct {
	o    *serve.Oracle
	memo map[serve.Query][]byte
}

func queryOracle(int64) any {
	return &queryRef{o: serve.NewOracle(queryGraph(), serve.Config{}), memo: map[serve.Query][]byte{}}
}

func (r *queryRef) answer(q serve.Query) ([]byte, error) {
	if a, ok := r.memo[q]; ok {
		return a, nil
	}
	a, err := r.o.Answer(q)
	if err == nil {
		r.memo[q] = a
	}
	return a, err
}

// qrec is one query's client-side record. The sender writes due/sent, the
// connection's reader the rest; both finish before the records are read.
type qrec struct {
	due, sent time.Time
	recv      time.Time
	status    uint8
	payload   []byte
	answered  bool
}

func runQuery(c cycleCfg) (res cycleResult, err error) {
	t0 := time.Now()
	g := queryGraph()
	t1 := time.Now()
	pt := partition.Build(g, ranks, partition.EdgeCut)
	t2 := time.Now()
	provs, err := netfabric.NewLoopbackGroup(ranks, netfabric.Config{})
	if err != nil {
		return res, fmt.Errorf("query-udp: %w", err)
	}
	defer netfabric.CloseGroup(provs)
	feps := make([]fabric.Provider, ranks)
	for r := range feps {
		feps[r] = provs[r]
	}
	regs := registries(feps)
	wrapProviders(feps, c.tr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, fmt.Errorf("query-udp: listen: %w", err)
	}

	coord := make(chan *serve.Server, 1)
	var ranksDone sync.WaitGroup
	for r := 0; r < ranks; r++ {
		ranksDone.Add(1)
		go func(r int) {
			defer ranksDone.Done()
			opt := bench.LCIOptions(ranks, threads)
			opt.Telemetry = regs[r]
			var layer comm.Layer = comm.NewLCILayer(feps[r], opt)
			if c.tr != nil {
				layer = &tracedLayer{in: layer.(asyncLayer), t: c.tr, rank: r}
			}
			cluster.RunRank(r, ranks, threads, layer, func(h *cluster.Host) {
				s := serve.New(h, pt, serve.Config{Reg: regs[r]})
				if r != 0 {
					s.Run()
					return
				}
				fe := serve.ServeClients(ln, s)
				coord <- s
				s.Run()
				fe.Close()
			})
		}(r)
	}
	s0 := <-coord
	// Drain on every exit path: shed new queries, finish resident ones,
	// stop the worker ranks, and wait for every rank to tear down.
	defer func() {
		s0.InitiateDrain()
		ranksDone.Wait()
	}()

	conns := make([]net.Conn, queryConns)
	for i := range conns {
		conns[i], err = net.DialTimeout("tcp", ln.Addr().String(), 10*time.Second)
		if err != nil {
			return res, fmt.Errorf("query-udp: dial: %w", err)
		}
		defer conns[i].Close()
	}
	if err := serve.WriteRequest(conns[0], 0, probeQuery); err != nil {
		return res, fmt.Errorf("query-udp: probe: %w", err)
	}
	conns[0].SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, st, _, err := serve.ReadResponse(conns[0]); err != nil || st != serve.StatusOK {
		return res, fmt.Errorf("query-udp: probe answer: status %d, %v", st, err)
	}
	conns[0].SetReadDeadline(time.Time{})
	res.setup = setupTimes{gen: t1.Sub(t0), part: t2.Sub(t1), ready: time.Since(t2), total: time.Since(t0)}

	// Each segment takes its own slice of one seeded stream.
	w := &window{}
	m := &meter{regs: regs}
	total := c.warm + c.ops
	qs := queryStream(c.seed, segments*total, g.N)[c.segment*total : (c.segment+1)*total]
	recs := openLoop(conns, qs, c, m, w)

	ref := c.oracle.(*queryRef)
	for i := c.warm; i < total; i++ {
		r := &recs[i]
		w.late = append(w.late, r.sent.Sub(r.due))
		q := qs[i]
		switch {
		case !r.answered:
			w.fail(0, fmt.Errorf("query %d (%s %d %d): no answer", i, serve.OpName(q.Op), q.A, q.B))
		case r.status != serve.StatusOK:
			w.fail(r.recv.Sub(r.due), fmt.Errorf("query %d (%s %d %d): status %d", i, serve.OpName(q.Op), q.A, q.B, r.status))
		default:
			ans, err := ref.answer(q)
			if err != nil {
				return res, fmt.Errorf("query-udp: oracle: %w", err)
			}
			if !bytes.Equal(ans, r.payload) {
				w.fail(r.recv.Sub(r.due), fmt.Errorf("query %d (%s %d %d): answer differs from oracle", i, serve.OpName(q.Op), q.A, q.B))
			} else {
				w.ok(r.recv.Sub(r.due))
			}
		}
	}
	res.win = w
	return res, nil
}

// spinFor is how long before a due time the generator stops sleeping and
// yields in a loop instead: a timer wake-up on a virtual machine can be a
// millisecond late, and that lateness would count in every latency.
const spinFor = 300 * time.Microsecond

// waitUntil returns at t: it sleeps until spinFor before, then yields.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinFor; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends qs on schedule over conns and collects the answers. The
// window (meter and tracer) opens when the first measured query is due and
// closes when every measured query is answered or the grace period ends.
func openLoop(conns []net.Conn, qs []serve.Query, c cycleCfg, m *meter, w *window) []qrec {
	recs := make([]qrec, len(qs))
	interval := time.Second / queryQPS
	begin := time.Now().Add(20 * time.Millisecond)
	for i := range recs {
		recs[i].due = begin.Add(time.Duration(i) * interval)
	}
	var answered atomic.Int64
	allAnswered := make(chan struct{})

	var readers, senders sync.WaitGroup
	for ci, conn := range conns {
		readers.Add(1)
		go func(conn net.Conn) {
			defer readers.Done()
			br := bufio.NewReader(conn)
			for {
				reqid, status, payload, err := serve.ReadResponse(br)
				if err != nil {
					return // connection closed after the window
				}
				i := int(reqid) - 1
				if i < 0 || i >= len(recs) || recs[i].answered {
					continue
				}
				recs[i].recv = time.Now()
				recs[i].status, recs[i].payload, recs[i].answered = status, payload, true
				if i >= c.warm && answered.Add(1) == int64(c.ops) {
					close(allAnswered)
				}
			}
		}(conn)
		senders.Add(1)
		go func(ci int, conn net.Conn) {
			defer senders.Done()
			for i := ci; i < len(qs); i += len(conns) {
				waitUntil(recs[i].due)
				recs[i].sent = time.Now()
				if err := serve.WriteRequest(conn, uint32(i+1), qs[i]); err != nil {
					return
				}
			}
		}(ci, conn)
	}

	time.Sleep(time.Until(recs[c.warm].due))
	if c.tr != nil {
		c.tr.resume()
	}
	m.start()
	m.begin = recs[c.warm].due // the window's wall time runs from the first due time
	select {
	case <-allAnswered:
	case <-time.After(time.Until(recs[len(recs)-1].due.Add(queryGrace))):
	}
	m.stop(w)
	if c.tr != nil {
		c.tr.pause()
	}
	senders.Wait()
	for _, conn := range conns {
		conn.Close()
	}
	readers.Wait()
	return recs
}
