package main

import (
	"fmt"
	"math"
	"time"

	"lcigraph/internal/abelian"
	"lcigraph/internal/apps"
	"lcigraph/internal/bench"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/fabric"
	"lcigraph/internal/gemini"
	"lcigraph/internal/graph"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
)

// The two analytics workloads run P ranks in this process under
// cluster.Run, one compute thread each, and time one whole app run per op.
// Ops are separated by barriers, so op i+1 never overlaps op i:
//
//	barrier → op (timed on rank 0) → barrier → collect → barrier → verify
//
// Rank 0 verifies the collected result against the oracle while the other
// ranks wait at the next op's first barrier, outside the timed region.

const (
	ranks   = 2
	threads = 1
	prIters = 10
	// bfsSources is how many BFS sources a bfs-gemini-sim run cycles
	// through; each has its oracle computed before the window.
	bfsSources = 8
)

// pagerankInputs builds the pagerank-udp graph.
func pagerankGraph(seed int64) *graph.Graph { return graph.Kron(13, 8, seed, 64) }

// bfsGraph builds the bfs-gemini-sim graph.
func bfsGraph(seed int64) *graph.Graph { return graph.Kron(14, 8, seed, 64) }

// registries gives each rank its own live registry with its provider's
// counters registered, so the window's wire counters are job totals.
func registries(feps []fabric.Provider) []*telemetry.Registry {
	regs := make([]*telemetry.Registry, len(feps))
	for r, fep := range feps {
		regs[r] = telemetry.NewEnabled(r)
		if mr, ok := fep.(fabric.MetricsRegistrar); ok {
			mr.RegisterMetrics(regs[r])
		}
	}
	return regs
}

// wrapProviders puts the traced wrapper around each provider (no-op when
// tr is nil).
func wrapProviders(feps []fabric.Provider, tr *tracer) {
	if tr == nil {
		return
	}
	for r, fep := range feps {
		feps[r] = &tracedProvider{in: fep.(providerImpl), t: tr, rank: r}
	}
}

// opLoop runs warm+ops ops on one rank. run executes op i and returns the
// rank's BSP round count; collect copies the rank's share of the result
// after the op; verify (rank 0 only) checks op i's collected result. The
// window opens after the warm-up on rank 0.
func opLoop(h *cluster.Host, c cycleCfg, w *window, m *meter,
	run func(i int) int, collect func(), verify func(i int) error) {
	total := c.warm + c.ops
	for i := 0; i < total; i++ {
		op := i - c.warm
		if op == 0 {
			h.Barrier()
			if h.Rank == 0 {
				if c.tr != nil {
					c.tr.resume()
				}
				m.start()
			}
		}
		h.Barrier()
		t0 := time.Now()
		ts, idle := c.tr.beginOp(h.Rank, op)
		rounds := run(i)
		c.tr.endOp(h.Rank, ts, idle)
		h.Barrier()
		d := time.Since(t0)
		collect()
		h.Barrier()
		if h.Rank != 0 || op < 0 {
			continue
		}
		w.busy += d
		if err := verify(i); err != nil {
			w.fail(d, err)
		} else {
			w.ok(d)
		}
		w.rounds += rounds
	}
	h.Barrier()
	if h.Rank == 0 {
		m.stop(w)
		if c.tr != nil {
			c.tr.pause()
		}
	}
}

// runPagerank is one pagerank-udp cycle: Abelian PageRank over the LCI
// layer on real loopback UDP, vertex-cut partition.
func runPagerank(c cycleCfg) (cycleResult, error) {
	var res cycleResult
	t0 := time.Now()
	g := pagerankGraph(c.seed)
	t1 := time.Now()
	pt := partition.Build(g, ranks, partition.VertexCut)
	t2 := time.Now()
	provs, err := netfabric.NewLoopbackGroup(ranks, netfabric.Config{})
	if err != nil {
		return res, fmt.Errorf("pagerank-udp: %w", err)
	}
	defer netfabric.CloseGroup(provs)
	feps := make([]fabric.Provider, ranks)
	for r := range feps {
		feps[r] = provs[r]
	}
	regs := registries(feps)
	wrapProviders(feps, c.tr)
	mk := func(r int) comm.Layer {
		opt := bench.LCIOptions(ranks, threads)
		opt.Telemetry = regs[r]
		l := comm.NewLCILayer(feps[r], opt)
		if c.tr != nil {
			return &tracedLayer{in: l, t: c.tr, rank: r}
		}
		return l
	}

	want := c.oracle.([]float64)
	got := make([]float64, g.N)
	w := &window{}
	m := &meter{regs: regs}
	cluster.Run(ranks, threads, mk, func(h *cluster.Host) {
		h.Barrier()
		if h.Rank == 0 {
			res.setup = setupTimes{gen: t1.Sub(t0), part: t2.Sub(t1), ready: time.Since(t2), total: time.Since(t0)}
		}
		hg := pt.Hosts[h.Rank]
		var rank *abelian.Field
		opLoop(h, c, w, m,
			func(int) int {
				rt := abelian.New(h, hg, partition.VertexCut)
				rank = apps.PageRank(rt, prIters)
				return rt.Rounds
			},
			func() {
				for lv := 0; lv < hg.NumMasters; lv++ {
					got[hg.L2G[lv]] = math.Float64frombits(rank.Get(uint32(lv)))
				}
			},
			func(int) error {
				if d := apps.MaxRankDelta(want, got); d > 1e-9 {
					return fmt.Errorf("pagerank: max delta %.3e vs oracle", d)
				}
				return nil
			})
	})
	res.win = w
	return res, nil
}

// pagerankOracle computes the pagerank-udp reference ranks.
func pagerankOracle(seed int64) any {
	return apps.OraclePageRank(pagerankGraph(seed), prIters)
}

// bfsOracle picks the BFS sources for a seed and computes their reference
// distances.
type bfsRef struct {
	src  []uint32
	dist [][]uint64
}

// bfsOracleFor draws bfsSources sources that reach at least half the graph
// (the giant component), so every op does comparable work.
func bfsOracleFor(seed int64) any {
	g := bfsGraph(seed)
	rng := newRand(seed ^ 0x5eed)
	ref := bfsRef{}
	for len(ref.src) < bfsSources {
		v := uint32(rng.Intn(g.N))
		if g.Degree(int(v)) == 0 {
			continue
		}
		d := apps.OracleBFS(g, v)
		reached := 0
		for _, x := range d {
			if x != apps.Inf {
				reached++
			}
		}
		if reached*2 < g.N {
			continue
		}
		ref.src = append(ref.src, v)
		ref.dist = append(ref.dist, d)
	}
	return ref
}

// runBFS is one bfs-gemini-sim cycle: Gemini BFS over LCIStream on the
// simulated fabric with the OmniPath profile, destination edge-cut.
func runBFS(c cycleCfg) (cycleResult, error) {
	var res cycleResult
	t0 := time.Now()
	g := bfsGraph(c.seed)
	t1 := time.Now()
	pt := partition.Build(g, ranks, partition.EdgeCutByDst)
	t2 := time.Now()
	fab := fabric.New(ranks, fabric.OmniPath())
	feps := make([]fabric.Provider, ranks)
	for r := range feps {
		feps[r] = fab.Endpoint(r)
	}
	regs := registries(feps)
	wrapProviders(feps, c.tr)

	ref := c.oracle.(bfsRef)
	got := make([]uint64, g.N)
	w := &window{}
	m := &meter{regs: regs}
	cluster.Run(ranks, threads, func(int) comm.Layer { return nopLayer{} }, func(h *cluster.Host) {
		opt := bench.LCIOptions(ranks, threads)
		opt.Telemetry = regs[h.Rank]
		var s comm.Stream = comm.NewLCIStream(feps[h.Rank], opt)
		if c.tr != nil {
			s = &tracedStream{in: s.(streamImpl), t: c.tr, rank: h.Rank}
		}
		defer s.Stop()
		h.Barrier()
		if h.Rank == 0 {
			res.setup = setupTimes{gen: t1.Sub(t0), part: t2.Sub(t1), ready: time.Since(t2), total: time.Since(t0)}
		}
		hg := pt.Hosts[h.Rank]
		var e *gemini.Engine
		opLoop(h, c, w, m,
			func(i int) int {
				e = gemini.New(h, hg, s, apps.Inf, minU64)
				return apps.GeminiBFS(e, ref.src[i%bfsSources])
			},
			func() {
				for lv := 0; lv < hg.NumMasters; lv++ {
					got[hg.L2G[lv]] = e.Get(uint32(lv))
				}
			},
			func(i int) error {
				want := ref.dist[i%bfsSources]
				for v := range want {
					if want[v] != got[v] {
						return fmt.Errorf("bfs from %d: vertex %d got %d want %d",
							ref.src[i%bfsSources], v, got[v], want[v])
					}
				}
				return nil
			})
	})
	res.win = w
	return res, nil
}

func minU64(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// nopLayer satisfies cluster.Run for Gemini, which communicates through its
// stream; in-process collectives never touch the layer.
type nopLayer struct{}

func (nopLayer) Name() string { return "none" }
func (nopLayer) Exchange(uint32, [][]byte, []bool, []int, func(int, []byte)) {
	panic("perfbench: exchange on the gemini placeholder layer")
}
func (nopLayer) AllocBuf(n int) []byte      { return make([]byte, n) }
func (nopLayer) Tracker() *memtrack.Tracker { return nil }
func (nopLayer) Stop()                      {}
