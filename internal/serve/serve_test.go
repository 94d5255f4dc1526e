package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"lcigraph/internal/bench"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
)

// --- wire ---

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	q := Query{Op: OpPPR, A: 1234, B: 8}
	if err := WriteRequest(&buf, 77, q); err != nil {
		t.Fatal(err)
	}
	reqid, got, err := ReadRequest(&buf)
	if err != nil || reqid != 77 || got != q {
		t.Fatalf("request round trip: %d %+v %v", reqid, got, err)
	}

	resp := EncodeResponse(99, StatusShed, ShedPayload(250))
	rid, status, payload, err := ReadResponse(bytes.NewReader(resp))
	if err != nil || rid != 99 || status != StatusShed || RetryAfterMs(payload) != 250 {
		t.Fatalf("response round trip: %d %d %v %v", rid, status, payload, err)
	}

	verts := []uint32{3, 9, 200}
	req := encodeAdjReq(heapAlloc, 0xbeef, len(verts), func(i int) uint32 { return verts[i] })
	qid, rv, err := parseAdjReq(req)
	if err != nil || qid != 0xbeef || rv.len() != 3 || rv.vert(0) != 3 || rv.vert(2) != 200 {
		t.Fatalf("adj request round trip: %x %d %v", qid, rv.len(), err)
	}
	adj := [][]uint32{{1, 2}, nil, {5}}
	rep := encodeLists(heapAlloc, 0xbeef, adj)
	qid, view, err := parseAdjRep(rep, 6)
	ga := lists(view)
	if err != nil || qid != 0xbeef || len(ga) != 3 ||
		fmt.Sprint(ga[0]) != fmt.Sprint(adj[0]) || len(ga[1]) != 0 ||
		fmt.Sprint(ga[2]) != fmt.Sprint(adj[2]) {
		t.Fatalf("adj reply round trip: %x %v %v", qid, ga, err)
	}
}

// --- cache ---

func TestCacheLRU(t *testing.T) {
	c := newLRU(2)
	k1 := cacheKey{OpKHop, 1, 1}
	k2 := cacheKey{OpKHop, 2, 1}
	k3 := cacheKey{OpKHop, 3, 1}
	c.put(k1, []byte{1})
	c.put(k2, []byte{2})
	if _, ok := c.get(k1); !ok { // refresh k1: k2 is now LRU
		t.Fatal("k1 missing")
	}
	c.put(k3, []byte{3})
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	if v, ok := c.get(k1); !ok || v[0] != 1 {
		t.Fatal("k1 lost")
	}
	if v, ok := c.get(k3); !ok || v[0] != 3 {
		t.Fatal("k3 lost")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}

	off := newLRU(0)
	off.put(k1, []byte{1})
	if _, ok := off.get(k1); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// --- machines against hand-computed answers ---

// chainGraph is 0→1→2→3→4 plus 0→2.
func chainGraph() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 4}, {Src: 0, Dst: 2},
	})
}

func TestOracleAnswers(t *testing.T) {
	o := NewOracle(chainGraph(), Config{})
	u32 := func(q Query) uint32 {
		t.Helper()
		payload, err := o.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		v, err := DecodeU32(payload)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// 1-hop from 0 reaches {0,1,2}; 2-hop adds 3; 0-hop is just the source.
	if got := u32(Query{Op: OpKHop, A: 0, B: 1}); got != 3 {
		t.Fatalf("khop(0,1) = %d, want 3", got)
	}
	if got := u32(Query{Op: OpKHop, A: 0, B: 2}); got != 4 {
		t.Fatalf("khop(0,2) = %d, want 4", got)
	}
	if got := u32(Query{Op: OpKHop, A: 0, B: 0}); got != 1 {
		t.Fatalf("khop(0,0) = %d, want 1", got)
	}
	// dist(0,4): 0→2→3→4.
	if got := u32(Query{Op: OpDist, A: 0, B: 4}); got != 3 {
		t.Fatalf("dist(0,4) = %d, want 3", got)
	}
	if got := u32(Query{Op: OpDist, A: 0, B: 0}); got != 0 {
		t.Fatalf("dist(0,0) = %d, want 0", got)
	}
	// 4 has no out-edges, so nothing is reachable from it.
	if got := u32(Query{Op: OpDist, A: 4, B: 0}); got != Unreachable {
		t.Fatalf("dist(4,0) = %d, want unreachable", got)
	}
	// PPR from 0: the source must dominate its own ranking.
	payload, err := o.Answer(Query{Op: OpPPR, A: 0, B: 3})
	if err != nil {
		t.Fatal(err)
	}
	vs, ss, err := DecodePPR(payload)
	if err != nil || len(vs) != 3 {
		t.Fatalf("ppr decode: %v %v %v", vs, ss, err)
	}
	if vs[0] != 0 || ss[0] <= ss[1] {
		t.Fatalf("ppr top = v%d %v, want source first", vs[0], ss)
	}
	// Validation errors.
	if _, err := o.Answer(Query{Op: OpKHop, A: 99, B: 1}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := o.Answer(Query{Op: 9, A: 0, B: 1}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// --- distributed jobs ---

// serveJob runs a P-rank serving job over the given providers and invokes
// client with rank 0's listen address and server (for InitiateDrain). It
// returns only when every rank has drained and exited cleanly — so every
// test through it is also a graceful-drain test.
func serveJob(t *testing.T, provs []fabric.Provider, pt *partition.Partitioned,
	cfg Config, client func(addr string, s0 *Server)) {
	t.Helper()
	runJob(t, provs, pt, func(int) Config { return cfg }, func(addr string, ss []*Server) {
		client(addr, ss[0])
	})
}

// runJob is serveJob with a per-rank Config, handing client every rank's
// server (indexed by rank).
func runJob(t *testing.T, provs []fabric.Provider, pt *partition.Partitioned,
	cfg func(rank int) Config, client func(addr string, ss []*Server)) {
	t.Helper()
	p := len(provs)
	ready := make(chan string)
	made := make(chan *Server, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			layer := comm.NewLCILayer(provs[r], bench.LCIOptions(p, 2))
			cluster.RunRank(r, p, 1, layer, func(h *cluster.Host) {
				s := New(h, pt, cfg(r))
				made <- s
				if r == 0 {
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Error(err)
						return
					}
					fe := ServeClients(ln, s)
					ready <- ln.Addr().String()
					s.Run()
					fe.Close()
				} else {
					s.Run()
				}
			})
		}(r)
	}
	addr := <-ready
	ss := make([]*Server, p)
	for range ss {
		s := <-made
		ss[s.h.Rank] = s
	}
	client(addr, ss)
	wg.Wait()
}

// response is one classified client response.
type response struct {
	status  uint8
	payload []byte
}

// readAll collects responses until the connection closes, failing on any
// duplicate reqid — the client-visible face of exactly-once execution.
func readAll(t *testing.T, conn net.Conn, got map[uint32]response) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
	br := bufio.NewReader(conn)
	for {
		reqid, status, payload, err := ReadResponse(br)
		if err == io.EOF {
			return
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("timed out with %d responses", len(got))
			}
			return // connection severed by drain
		}
		if _, dup := got[reqid]; dup {
			t.Fatalf("duplicate response for reqid %d", reqid)
		}
		got[reqid] = response{status, append([]byte(nil), payload...)}
	}
}

// TestServeLossyUDPExactlyOnce is the acceptance test: a 4-rank serving job
// over real loopback UDP with 5% datagram loss (plus duplication and
// reordering), a pipelined client, and a drain under load. Every request
// gets at most one response; every OK result is bit-identical to the
// single-host oracle; the job shuts down cleanly.
func TestServeLossyUDPExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy UDP soak")
	}
	const p = 4
	provs, err := netfabric.NewLoopbackGroup(p, netfabric.Config{
		Fault: netfabric.Fault{Loss: 0.05, Dup: 0.02, Reorder: 0.02, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer netfabric.CloseGroup(provs)

	g := graph.Named("web", 8, 42)
	pt := partition.Build(g, p, partition.EdgeCut)
	cfg := Config{MaxInFlight: 128, MaxPerClient: 128}
	oracle := NewOracle(g, cfg)

	feps := make([]fabric.Provider, p)
	for r := range feps {
		feps[r] = provs[r]
	}
	serveJob(t, feps, pt, cfg, func(addr string, s0 *Server) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			s0.InitiateDrain()
			return
		}
		defer conn.Close()

		// Phase 1: pipeline a mixed batch; with the generous admission
		// limits nothing may be shed, so every answer must match the oracle.
		rng := rand.New(rand.NewSource(3))
		queries := map[uint32]Query{}
		reqid := uint32(1)
		for i := 0; i < 40; i++ {
			q := randomQuery(rng, uint32(g.N))
			queries[reqid] = q
			if err := WriteRequest(conn, reqid, q); err != nil {
				t.Error(err)
				s0.InitiateDrain()
				return
			}
			reqid++
		}
		got := map[uint32]response{}
		br := bufio.NewReader(conn)
		conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		for len(got) < len(queries) {
			rid, status, payload, err := ReadResponse(br)
			if err != nil {
				t.Errorf("phase 1 read after %d responses: %v", len(got), err)
				s0.InitiateDrain()
				return
			}
			if _, dup := got[rid]; dup {
				t.Fatalf("duplicate response for reqid %d", rid)
			}
			got[rid] = response{status, append([]byte(nil), payload...)}
		}
		for rid, q := range queries {
			r := got[rid]
			if r.status != StatusOK {
				t.Fatalf("reqid %d (%s %d %d): status %d", rid, OpName(q.Op), q.A, q.B, r.status)
			}
			want, err := oracle.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.payload, want) {
				t.Fatalf("reqid %d (%s %d %d): distributed result differs from oracle",
					rid, OpName(q.Op), q.A, q.B)
			}
		}

		// Phase 2: drain under load. Fire a burst, initiate drain mid-burst;
		// each request gets at most one response — OK answers still match
		// the oracle, the rest are shed or see the connection close.
		burst := map[uint32]Query{}
		for i := 0; i < 20; i++ {
			q := randomQuery(rng, uint32(g.N))
			burst[reqid] = q
			if err := WriteRequest(conn, reqid, q); err != nil {
				break
			}
			reqid++
			if i == 5 {
				s0.InitiateDrain()
			}
		}
		s0.InitiateDrain()
		late := map[uint32]response{}
		readAll(t, conn, late)
		okN, shedN := 0, 0
		for rid, r := range late {
			q, mine := burst[rid]
			if !mine {
				t.Fatalf("unsolicited response for reqid %d", rid)
			}
			switch r.status {
			case StatusOK:
				okN++
				want, _ := oracle.Answer(q)
				if !bytes.Equal(r.payload, want) {
					t.Fatalf("drain-phase reqid %d: result differs from oracle", rid)
				}
			case StatusShed:
				shedN++
				if RetryAfterMs(r.payload) == 0 {
					t.Fatalf("shed response without a retry-after hint")
				}
			default:
				t.Fatalf("drain-phase reqid %d: unexpected status %d", rid, r.status)
			}
		}
		t.Logf("drain under load: %d ok, %d shed, %d unanswered (connection closed)",
			okN, shedN, len(burst)-len(late))
	})
}

// TestServeSimCacheAndDrainShed drives a tiny in-process job and checks the
// LRU result cache (repeat query served from cache, hit counters move) and
// the drain-time admission behavior (new queries shed with a retry hint).
func TestServeSimCacheAndDrainShed(t *testing.T) {
	const p = 2
	fab := fabric.New(p, fabric.TestProfile())
	feps := make([]fabric.Provider, p)
	for r := range feps {
		feps[r] = fab.Endpoint(r)
	}
	g := chainGraph()
	pt := partition.Build(g, p, partition.EdgeCut)
	reg := telemetry.NewEnabled(0)
	cfg := Config{Reg: reg}
	oracle := NewOracle(g, cfg)

	serveJob(t, feps, pt, cfg, func(addr string, s0 *Server) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			s0.InitiateDrain()
			return
		}
		defer conn.Close()
		ask := func(reqid uint32, q Query) (response, error) {
			t.Helper()
			if err := WriteRequest(conn, reqid, q); err != nil {
				return response{}, err
			}
			conn.SetReadDeadline(time.Now().Add(time.Minute))
			rid, status, payload, err := ReadResponse(conn)
			if err != nil {
				return response{}, err
			}
			if rid != reqid {
				t.Fatalf("response for %d answered %d", reqid, rid)
			}
			return response{status, append([]byte(nil), payload...)}, nil
		}
		mustAsk := func(reqid uint32, q Query) response {
			t.Helper()
			r, err := ask(reqid, q)
			if err != nil {
				t.Fatalf("ask %d: %v", reqid, err)
			}
			return r
		}

		q := Query{Op: OpKHop, A: 0, B: 2}
		want, _ := oracle.Answer(q)
		for i := uint32(0); i < 3; i++ {
			r := mustAsk(1+i, q)
			if r.status != StatusOK || !bytes.Equal(r.payload, want) {
				t.Fatalf("ask %d: status %d", i, r.status)
			}
		}
		if hits := reg.Counter("lci_serve_cache_hits_total").Value(); hits != 2 {
			t.Errorf("cache hits = %d, want 2", hits)
		}
		if misses := reg.Counter("lci_serve_cache_misses_total").Value(); misses != 1 {
			t.Errorf("cache misses = %d, want 1", misses)
		}
		// A malformed query errors without disturbing the job.
		if r := mustAsk(50, Query{Op: OpDist, A: 0, B: 5000}); r.status != StatusError {
			t.Fatalf("out-of-range dist: status %d", r.status)
		}
		// After drain initiation an admission either sheds (the loop saw the
		// request before exiting) or the connection closes (it exited first);
		// both are the client's retry signal, and nothing may be answered OK.
		s0.InitiateDrain()
		r, err := ask(60, q)
		switch {
		case err != nil:
			t.Logf("post-drain query: connection closed (%v)", err)
		case r.status == StatusShed:
			if RetryAfterMs(r.payload) == 0 {
				t.Fatal("shed response without a retry-after hint")
			}
		default:
			t.Fatalf("post-drain query answered with status %d", r.status)
		}
	})
}

// TestSoakHarness points the open-loop load generator at a small sim job:
// the report must account for every request and the latency check must
// honor the single-CPU guard.
func TestSoakHarness(t *testing.T) {
	const p = 2
	fab := fabric.New(p, fabric.TestProfile())
	feps := make([]fabric.Provider, p)
	for r := range feps {
		feps[r] = fab.Endpoint(r)
	}
	g := graph.Named("web", 7, 42)
	pt := partition.Build(g, p, partition.EdgeCut)
	serveJob(t, feps, pt, Config{}, func(addr string, s0 *Server) {
		rep, err := RunSoak(SoakOptions{
			Addr: addr, Conns: 2, QPS: 100, Duration: 300 * time.Millisecond,
			MaxVertex: uint32(g.N), Seed: 9,
		})
		s0.InitiateDrain()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sent == 0 || rep.OK == 0 {
			t.Fatalf("no load delivered: %+v", rep)
		}
		if rep.OK+rep.Shed+rep.Errors+rep.Lost != rep.Sent {
			t.Fatalf("request accounting: ok %d + shed %d + errors %d + lost %d != sent %d",
				rep.OK, rep.Shed, rep.Errors, rep.Lost, rep.Sent)
		}
		if rep.Errors != 0 {
			t.Fatalf("%d error responses", rep.Errors)
		}
		if err := rep.CheckLatency(time.Millisecond); err != nil {
			// Plausible on a multi-core box only if serving is pathologically
			// slow; the single-CPU guard must have skipped it here.
			t.Logf("latency check: %v", err)
		}
		if rep.GOMAXPROCS == 1 && rep.ThresholdsChecked {
			t.Fatal("thresholds must not be enforced at GOMAXPROCS=1")
		}
		t.Log(rep.Table())
	})
}

// TestServeParkedLoopsDrain: over the sim fabric, whose doorbell lets the
// serving loops park when an iteration finds no work, every admitted query
// is answered exactly once, both loops then park while idle, and
// InitiateDrain still ends the job: the parked coordinator wakes, and its
// stop control wakes the parked worker.
func TestServeParkedLoopsDrain(t *testing.T) {
	const p = 2
	fab := fabric.New(p, fabric.TestProfile())
	feps := make([]fabric.Provider, p)
	regs := make([]*telemetry.Registry, p)
	for r := range feps {
		feps[r] = fab.Endpoint(r)
		regs[r] = telemetry.NewEnabled(0)
	}
	g := graph.Named("web", 7, 42)
	pt := partition.Build(g, p, partition.EdgeCut)
	oracle := NewOracle(g, Config{})
	parks := func(r int) int64 { return regs[r].Counter("lci_serve_parks_total").Value() }

	cfg := func(r int) Config { return Config{MaxInFlight: 128, MaxPerClient: 128, Reg: regs[r]} }
	runJob(t, feps, pt, cfg, func(addr string, ss []*Server) {
		for r, s := range ss {
			if s.bell == nil {
				t.Errorf("rank %d: the sim layer exposes no doorbell; loops would not park", r)
			}
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			ss[0].InitiateDrain()
			return
		}
		defer conn.Close()

		rng := rand.New(rand.NewSource(5))
		queries := map[uint32]Query{}
		for reqid := uint32(1); reqid <= 30; reqid++ {
			q := randomQuery(rng, uint32(g.N))
			queries[reqid] = q
			if err := WriteRequest(conn, reqid, q); err != nil {
				t.Error(err)
				ss[0].InitiateDrain()
				return
			}
		}
		br := bufio.NewReader(conn)
		conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		got := map[uint32]bool{}
		for len(got) < len(queries) {
			rid, status, payload, err := ReadResponse(br)
			if err != nil {
				t.Errorf("read after %d responses: %v", len(got), err)
				ss[0].InitiateDrain()
				return
			}
			q, mine := queries[rid]
			switch {
			case !mine:
				t.Fatalf("unsolicited response for reqid %d", rid)
			case got[rid]:
				t.Fatalf("duplicate response for reqid %d", rid)
			case status != StatusOK:
				t.Fatalf("reqid %d (%s %d %d): status %d", rid, OpName(q.Op), q.A, q.B, status)
			}
			want, _ := oracle.Answer(q)
			if !bytes.Equal(payload, want) {
				t.Fatalf("reqid %d (%s %d %d): result differs from oracle", rid, OpName(q.Op), q.A, q.B)
			}
			got[rid] = true
		}
		var answered int64
		for _, op := range []uint8{OpKHop, OpDist, OpPPR} {
			answered += regs[0].Counter(fmt.Sprintf(`lci_serve_queries_total{op=%q,status="ok"}`, OpName(op))).Value()
		}
		if answered != int64(len(queries)) {
			t.Fatalf("coordinator counted %d answered queries, client got %d", answered, len(queries))
		}

		// Both loops keep parking while idle (each backstop wake parks
		// again); wait until each has parked since the last answer.
		base := []int64{parks(0), parks(1)}
		deadline := time.Now().Add(30 * time.Second)
		for r := 0; r < p; r++ {
			for parks(r) <= base[r] {
				if time.Now().After(deadline) {
					t.Errorf("rank %d never parked while idle", r)
					ss[0].InitiateDrain()
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
		ss[0].InitiateDrain()
		late := map[uint32]response{}
		readAll(t, conn, late)
		if len(late) != 0 {
			t.Fatalf("%d responses after drain with nothing pending", len(late))
		}
	})
}
