package gemini

import (
	"sync/atomic"
	"testing"

	"lcigraph/internal/bitset"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/partition"
)

func minU64(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

type dummyLayer struct{}

func (dummyLayer) Name() string { return "dummy" }
func (dummyLayer) Exchange(uint32, [][]byte, []bool, []int, func(int, []byte)) {
	panic("unused in gemini tests")
}
func (dummyLayer) AllocBuf(n int) []byte      { return make([]byte, n) }
func (dummyLayer) Tracker() *memtrack.Tracker { return nil }
func (dummyLayer) Stop()                      {}

// runEngines builds a dst-owned edge-cut over g and runs body on each
// host's engine (LCI stream backend).
func runEngines(g *graph.Graph, p int, identity uint64,
	reduce func(a, b uint64) uint64, body func(e *Engine)) {

	pt := partition.Build(g, p, partition.EdgeCutByDst)
	fab := fabric.New(p, fabric.TestProfile())
	cluster.Run(p, 2, func(r int) comm.Layer { return dummyLayer{} },
		func(h *cluster.Host) {
			s := comm.NewLCIStream(fab.Endpoint(h.Rank), lci.Options{})
			e := New(h, pt.Hosts[h.Rank], s, identity, reduce)
			body(e)
			h.Barrier()
			s.Stop()
		})
}

func TestEngineApplySemantics(t *testing.T) {
	g := graph.Ring(8)
	runEngines(g, 2, ^uint64(0), minU64, func(e *Engine) {
		if e.Get(0) != ^uint64(0) {
			t.Errorf("identity missing")
		}
		if !e.Apply(0, 4) || e.Apply(0, 9) {
			t.Errorf("apply change detection broken")
		}
		e.Set(0, 2)
		if e.Get(0) != 2 {
			t.Errorf("set/get broken")
		}
	})
}

// TestStreamRoundDeliversSignals: every emitted signal reaches apply on the
// right host exactly once.
func TestStreamRoundDeliversSignals(t *testing.T) {
	g := graph.Complete(12)
	const p = 3
	var applied [p]atomic.Int64
	runEngines(g, p, 0, func(a, b uint64) uint64 { return a + b }, func(e *Engine) {
		const perThread = 50
		e.StreamRound(
			func(th int, emit func(peer int, gsrc uint32, val uint64)) {
				for i := 0; i < perThread; i++ {
					for peer := 0; peer < p; peer++ {
						if peer != e.H.Rank {
							// Use a master gid of the destination peer so
							// G2L resolves there; complete graph ⇒ every
							// vertex everywhere.
							emit(peer, uint32(0), 1)
						}
					}
				}
			},
			func(gsrc uint32, val uint64) {
				if val != 1 {
					t.Errorf("corrupt signal value %d", val)
				}
				applied[e.H.Rank].Add(1)
			})
	})
	for h := 0; h < p; h++ {
		want := int64((p - 1) * 2 * 50)
		if got := applied[h].Load(); got != want {
			t.Fatalf("host %d applied %d signals, want %d", h, got, want)
		}
	}
}

// TestStreamRoundTrackerBalanced: a round whose signal batches end partial
// (1000 signals a thread, 256 to a full batch) leaves no tracked bytes once
// the stream stops: a batch shipped shortened is freed as it was charged.
func TestStreamRoundTrackerBalanced(t *testing.T) {
	g := graph.Complete(12)
	const p = 2
	pt := partition.Build(g, p, partition.EdgeCutByDst)
	fab := fabric.New(p, fabric.TestProfile())
	var left [p]int64
	cluster.Run(p, 2, func(r int) comm.Layer { return dummyLayer{} },
		func(h *cluster.Host) {
			s := comm.NewLCIStream(fab.Endpoint(h.Rank), lci.Options{})
			e := New(h, pt.Hosts[h.Rank], s, 0, func(a, b uint64) uint64 { return a + b })
			e.StreamRound(
				func(_ int, emit func(peer int, gdst uint32, val uint64)) {
					for i := 0; i < 1000; i++ {
						emit(1-h.Rank, 0, 1)
					}
				},
				func(uint32, uint64) {})
			h.Barrier()
			s.Stop()
			left[h.Rank] = s.Tracker().Current()
		})
	for r, n := range left {
		if n != 0 {
			t.Errorf("rank %d: %d tracked bytes after Stop", r, n)
		}
	}
}

// TestStreamRoundEmptyProduce: rounds with no signals terminate.
func TestStreamRoundEmptyProduce(t *testing.T) {
	g := graph.Ring(6)
	runEngines(g, 3, 0, minU64, func(e *Engine) {
		for r := 0; r < 5; r++ {
			e.StreamRound(
				func(int, func(int, uint32, uint64)) {},
				func(uint32, uint64) { t.Error("unexpected signal") })
		}
		if e.Rounds != 5 {
			t.Errorf("rounds = %d", e.Rounds)
		}
	})
}

// TestSetReduceSwitchesOperator: degree pre-pass then float accumulation.
func TestSetReduceSwitchesOperator(t *testing.T) {
	g := graph.Ring(8)
	runEngines(g, 2, ^uint64(0), minU64, func(e *Engine) {
		e.SetReduce(0, func(a, b uint64) uint64 { return a + b })
		if e.Get(0) != 0 {
			t.Errorf("SetReduce did not reset values")
		}
		e.Apply(0, 3)
		e.Apply(0, 4)
		if e.Get(0) != 7 {
			t.Errorf("sum = %d", e.Get(0))
		}
	})
}

// TestDenseRoundEquivalence: a forced dense round relaxes exactly like a
// sparse round.
func TestDenseRoundEquivalence(t *testing.T) {
	const n = 32
	g := graph.Kron(5, 4, 3, 8) // 32 vertices, symmetric
	const p = 3
	dist := make([]uint64, n)
	runEngines(g, p, ^uint64(0), minU64, func(e *Engine) {
		cur := bitset.New(e.HG.NumLocal)
		next := bitset.New(e.HG.NumLocal)
		// Seed all masters with their gid (cc-style) and run dense rounds
		// until quiescence.
		for m := 0; m < e.HG.NumMasters; m++ {
			e.Set(uint32(m), uint64(e.HG.L2G[m]))
			cur.Set(m)
		}
		relax := func(v uint64, _ uint32) uint64 { return v }
		for {
			e.DenseRound(cur, next, relax)
			if e.H.AllreduceSum(int64(next.CountRange(0, e.HG.NumMasters))) == 0 {
				break
			}
			cur, next = next, cur
			next.Reset()
		}
		for m := 0; m < e.HG.NumMasters; m++ {
			dist[e.HG.L2G[m]] = e.Get(uint32(m))
		}
	})
	// Every vertex must hold its component's min id — compare to a simple
	// union-find on the same graph.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			a, b := find(v), find(int(u))
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	for v := 0; v < n; v++ {
		if dist[v] != uint64(find(v)) {
			t.Fatalf("vertex %d: dense cc = %d, want %d", v, dist[v], find(v))
		}
	}
}

// TestAdaptiveMatchesSparse: RunPushAdaptive must give identical distances
// to RunPush, using at least one dense round on a dense frontier.
func TestAdaptiveMatchesSparse(t *testing.T) {
	const n = 64
	g := graph.Kron(6, 6, 9, 4)
	const p = 2
	sparse := make([]uint64, n)
	adaptive := make([]uint64, n)
	var denseRounds int

	seedFn := func(e *Engine) func(func(lv uint32)) {
		return func(activate func(lv uint32)) {
			if lv, ok := e.HG.G2L(0); ok && e.HG.IsMaster(lv) {
				e.Set(lv, 0)
				activate(lv)
			}
		}
	}
	relax := func(v uint64, w uint32) uint64 {
		if v == ^uint64(0) {
			return v
		}
		return v + uint64(w)
	}
	runEngines(g, p, ^uint64(0), minU64, func(e *Engine) {
		e.RunPush(seedFn(e), relax)
		for m := 0; m < e.HG.NumMasters; m++ {
			sparse[e.HG.L2G[m]] = e.Get(uint32(m))
		}
	})
	runEngines(g, p, ^uint64(0), minU64, func(e *Engine) {
		_, d := e.RunPushAdaptive(seedFn(e), relax)
		if e.H.Rank == 0 {
			denseRounds = d
		}
		for m := 0; m < e.HG.NumMasters; m++ {
			adaptive[e.HG.L2G[m]] = e.Get(uint32(m))
		}
	})
	for v := 0; v < n; v++ {
		if sparse[v] != adaptive[v] {
			t.Fatalf("vertex %d: sparse %d vs adaptive %d", v, sparse[v], adaptive[v])
		}
	}
	if denseRounds == 0 {
		t.Error("adaptive run never went dense on a dense frontier")
	}
}

// TestRunPushRingBFS: distances on a directed ring from vertex 0.
func TestRunPushRingBFS(t *testing.T) {
	const n = 24
	g := graph.Ring(n)
	const p = 3
	dist := make([]uint64, n)
	runEngines(g, p, ^uint64(0), minU64, func(e *Engine) {
		e.RunPush(
			func(activate func(lv uint32)) {
				if lv, ok := e.HG.G2L(0); ok && e.HG.IsMaster(lv) {
					e.Set(lv, 0)
					activate(lv)
				}
			},
			func(v uint64, _ uint32) uint64 { return v + 1 })
		for m := 0; m < e.HG.NumMasters; m++ {
			dist[e.HG.L2G[m]] = e.Get(uint32(m))
		}
	})
	for v := 0; v < n; v++ {
		if dist[v] != uint64(v) {
			t.Fatalf("dist[%d] = %d", v, dist[v])
		}
	}
}
