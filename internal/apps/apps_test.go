package apps

import (
	"fmt"
	"math"
	"testing"

	"lcigraph/internal/abelian"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/gemini"
	"lcigraph/internal/graph"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/partition"
)

// runAbelianApp executes body on an LCI-backed Abelian cluster of p ranks
// with threads compute threads each, and collects master values into a
// global array.
func runAbelianApp(g *graph.Graph, p, threads int,
	body func(rt *abelian.Runtime) *abelian.Field) []uint64 {
	pt := partition.Build(g, p, partition.VertexCut)
	fab := fabric.New(p, fabric.TestProfile())
	out := make([]uint64, g.N)
	cluster.Run(p, threads, func(r int) comm.Layer {
		return comm.NewLCILayer(fab.Endpoint(r), lci.Options{})
	}, func(h *cluster.Host) {
		rt := abelian.New(h, pt.Hosts[h.Rank], partition.VertexCut)
		f := body(rt)
		for m := 0; m < rt.HG.NumMasters; m++ {
			out[rt.HG.L2G[m]] = f.Get(uint32(m))
		}
	})
	return out
}

func equalU64(t *testing.T, got, want []uint64, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: vertex %d = %d, want %d", label, i, got[i], want[i])
		}
	}
}

// TestAbelianAppsDirect runs every Abelian app at 1, 2 and 4 compute
// threads per rank against its single-host oracle. One thread takes the
// fields' single-writer path; two and four take the CAS path, four with
// more workers than the machine may have cores.
func TestAbelianAppsDirect(t *testing.T) {
	g := graph.Kron(6, 5, 2, 16)
	const p, src, prIters, k = 3, 3, 6, 4
	nonzero := func(t *testing.T, label string, rounds int) {
		if rounds == 0 {
			t.Errorf("%s: zero rounds", label)
		}
	}
	ranks := func(vals []uint64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = math.Float64frombits(v)
		}
		return out
	}
	apps := []struct {
		name string
		run  func(t *testing.T, rt *abelian.Runtime) *abelian.Field
		want []uint64 // nil: compare as PageRank ranks
	}{
		{"bfs", func(t *testing.T, rt *abelian.Runtime) *abelian.Field {
			f, rounds := BFS(rt, src)
			nonzero(t, "bfs", rounds)
			return f
		}, OracleBFS(g, src)},
		{"bfs-dir", func(t *testing.T, rt *abelian.Runtime) *abelian.Field {
			f, rounds, _ := BFSDirectionOpt(rt, src)
			nonzero(t, "bfs-dir", rounds)
			return f
		}, OracleBFS(g, src)},
		{"cc", func(t *testing.T, rt *abelian.Runtime) *abelian.Field {
			f, _ := CC(rt)
			return f
		}, OracleCC(g)},
		{"sssp", func(t *testing.T, rt *abelian.Runtime) *abelian.Field {
			f, _ := SSSP(rt, src)
			return f
		}, OracleSSSP(g, src)},
		{"sssp-delta", func(t *testing.T, rt *abelian.Runtime) *abelian.Field {
			f, _ := SSSPDelta(rt, src, 8)
			return f
		}, OracleSSSP(g, src)},
		{"pagerank", func(t *testing.T, rt *abelian.Runtime) *abelian.Field {
			return PageRank(rt, prIters)
		}, nil},
		{"kcore", func(t *testing.T, rt *abelian.Runtime) *abelian.Field {
			f, _ := KCore(rt, k)
			return f
		}, OracleKCore(g, g.N, k)},
	}
	prWant := OraclePageRank(g, prIters)
	for _, app := range apps {
		for _, threads := range []int{1, 2, 4} {
			app, threads := app, threads
			t.Run(fmt.Sprintf("%s/threads=%d", app.name, threads), func(t *testing.T) {
				got := runAbelianApp(g, p, threads, func(rt *abelian.Runtime) *abelian.Field {
					return app.run(t, rt)
				})
				if app.want == nil {
					if d := MaxRankDelta(prWant, ranks(got)); d > 1e-9 {
						t.Fatalf("pagerank delta %.3e", d)
					}
					return
				}
				equalU64(t, got, app.want, app.name)
			})
		}
	}
}

func TestGeminiAppsDirect(t *testing.T) {
	g := graph.Kron(6, 5, 7, 16)
	const p = 2
	pt := partition.Build(g, p, partition.EdgeCutByDst)
	fab := fabric.New(p, fabric.TestProfile())
	dist := make([]uint64, g.N)
	adaptiveDist := make([]uint64, g.N)
	cluster.Run(p, 2, func(r int) comm.Layer { return nop{} }, func(h *cluster.Host) {
		s := comm.NewLCIStream(fab.Endpoint(h.Rank), lci.Options{})
		e := gemini.New(h, pt.Hosts[h.Rank], s, Inf, minU64)
		if r := GeminiBFS(e, 1); r == 0 {
			t.Error("gemini bfs: zero rounds")
		}
		for m := 0; m < e.HG.NumMasters; m++ {
			dist[e.HG.L2G[m]] = e.Get(uint32(m))
		}
		h.Barrier()
		s.Stop()
	})
	equalU64(t, dist, OracleBFS(g, 1), "gemini bfs")

	fab2 := fabric.New(p, fabric.TestProfile())
	cluster.Run(p, 2, func(r int) comm.Layer { return nop{} }, func(h *cluster.Host) {
		s := comm.NewLCIStream(fab2.Endpoint(h.Rank), lci.Options{})
		e := gemini.New(h, pt.Hosts[h.Rank], s, Inf, minU64)
		GeminiSSSPAdaptive(e, 1)
		for m := 0; m < e.HG.NumMasters; m++ {
			adaptiveDist[e.HG.L2G[m]] = e.Get(uint32(m))
		}
		h.Barrier()
		s.Stop()
	})
	equalU64(t, adaptiveDist, OracleSSSP(g, 1), "gemini adaptive sssp")
}

type nop struct{}

func (nop) Name() string { return "nop" }
func (nop) Exchange(uint32, [][]byte, []bool, []int, func(int, []byte)) {
	panic("unused")
}
func (nop) AllocBuf(n int) []byte      { return make([]byte, n) }
func (nop) Tracker() *memtrack.Tracker { return nil }
func (nop) Stop()                      {}
