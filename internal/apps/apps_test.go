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
	"lcigraph/internal/mpi"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
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

// geminiStreams are the stream configurations TestGeminiAppsDirect runs
// every app over. Each builds its transport for p ranks and returns rank
// r's stream constructor plus a teardown for after every rank has stopped.
var geminiStreams = []struct {
	name  string
	build func(t *testing.T, p int) (mk func(r int) comm.Stream, close func())
}{
	{"lci-sim-k1", func(t *testing.T, p int) (func(int) comm.Stream, func()) {
		return lciSimStream(fabric.TestProfile(), lci.Options{}, p), func() {}
	}},
	// Tag steering spreads the rounds over all four shards.
	{"lci-sim-k4", func(t *testing.T, p int) (func(int) comm.Stream, func()) {
		return lciSimStream(fabric.TestProfile(), lci.Options{Shards: 4, ShardByTag: true}, p), func() {}
	}},
	// No RDMA; the 4 KiB eager limit still carries every batch eager.
	{"lci-sim-sockets", func(t *testing.T, p int) (func(int) comm.Stream, func()) {
		return lciSimStream(fabric.Sockets(), lci.Options{}, p), func() {}
	}},
	// No RDMA and a 1 KiB eager limit: full 3 KiB batches and PageRank's
	// dense messages stream as FRG fragments under concurrent senders.
	{"lci-sim-sockets-1k", func(t *testing.T, p int) (func(int) comm.Stream, func()) {
		return lciSimStream(sockets1k(), lci.Options{}, p), func() {}
	}},
	{"lci-udp", func(t *testing.T, p int) (func(int) comm.Stream, func()) {
		provs, err := netfabric.NewLoopbackGroup(p, netfabric.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return func(r int) comm.Stream {
				return comm.NewLCIStream(provs[r], lci.Options{})
			}, func() {
				for _, pr := range provs {
					pr.Close()
				}
			}
	}},
	// At scale 9 batches exceed the 1 KiB eager limit and take MPI
	// rendezvous, whose data moves only inside the sender's MPI calls: the
	// engine waits for its sends (MPIStream.WaitSends) before a round ends.
	{"mpi-probe", func(t *testing.T, p int) (func(int) comm.Stream, func()) {
		fab := fabric.New(p, fabric.TestProfile())
		feps := make([]fabric.Provider, p)
		for r := range feps {
			feps[r] = fab.Endpoint(r)
		}
		impl := mpi.IntelMPI()
		impl.EagerLimit = fab.Profile().EagerLimit // MPI eager sends must fit one frame
		w := mpi.NewWorldOver(feps, impl, mpi.ThreadMultiple)
		return func(r int) comm.Stream { return comm.NewMPIStream(w.Comm(r)) }, func() {}
	}},
}

// sockets1k is the no-RDMA sockets profile with a 1 KiB eager limit.
func sockets1k() fabric.Profile {
	prof := fabric.Sockets()
	prof.EagerLimit = 1 << 10
	return prof
}

func lciSimStream(prof fabric.Profile, opt lci.Options, p int) func(int) comm.Stream {
	fab := fabric.New(p, prof)
	return func(r int) comm.Stream { return comm.NewLCIStream(fab.Endpoint(r), opt) }
}

// TestGeminiAppsDirect runs every Gemini app, plain and adaptive, at 1, 2
// and 4 compute threads per rank over every stream in geminiStreams, and
// checks each against its single-host oracle (PageRank within 1e-9). The
// LCI streams on the simulated fabric park their receive loop and idle
// servers on doorbells; over UDP the servers poll and the receive loop
// yields, as it does over MPIStream.
//
// Every stream runs on a Kronecker scale-6 graph, whose batches all fit
// one eager frame, and on scale 9 (subtests under "kron9/"): there
// PageRank's batches, and CC's at one thread, exceed TestProfile's 1 KiB
// eager limit and travel by rendezvous. The sockets
// profile's 4 KiB limit still carries every batch eager; lci-sim-sockets-1k
// lowers it to 1 KiB, so the larger batches travel as FRG fragments.
func TestGeminiAppsDirect(t *testing.T) {
	const p, src, prIters = 2, 1, 5
	for _, gc := range []struct {
		prefix string
		g      *graph.Graph
	}{
		{"", graph.Kron(6, 5, 7, 16)},
		{"kron9/", graph.Kron(9, 5, 7, 16)},
	} {
		g := gc.g
		pt := partition.Build(g, p, partition.EdgeCutByDst)
		apps := []struct {
			name string
			// run returns per-master values, indexed by local id, and the
			// app's round count.
			run  func(e *gemini.Engine) ([]uint64, int)
			want []uint64 // nil: compare as PageRank ranks
		}{
			{"bfs", func(e *gemini.Engine) ([]uint64, int) { r := GeminiBFS(e, src); return masters(e), r }, OracleBFS(g, src)},
			{"sssp", func(e *gemini.Engine) ([]uint64, int) { r := GeminiSSSP(e, src); return masters(e), r }, OracleSSSP(g, src)},
			{"cc", func(e *gemini.Engine) ([]uint64, int) { r := GeminiCC(e); return masters(e), r }, OracleCC(g)},
			{"bfs-adaptive", func(e *gemini.Engine) ([]uint64, int) { r, _ := GeminiBFSAdaptive(e, src); return masters(e), r }, OracleBFS(g, src)},
			{"sssp-adaptive", func(e *gemini.Engine) ([]uint64, int) { r, _ := GeminiSSSPAdaptive(e, src); return masters(e), r }, OracleSSSP(g, src)},
			{"cc-adaptive", func(e *gemini.Engine) ([]uint64, int) { r, _ := GeminiCCAdaptive(e); return masters(e), r }, OracleCC(g)},
			{"pagerank", func(e *gemini.Engine) ([]uint64, int) {
				ranks := GeminiPageRank(e, prIters)
				out := make([]uint64, len(ranks))
				for m, r := range ranks {
					out[m] = math.Float64bits(r)
				}
				return out, e.Rounds
			}, nil},
		}
		prWant := OraclePageRank(g, prIters)
		for _, st := range geminiStreams {
			for _, app := range apps {
				for _, threads := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s%s/%s/threads=%d", gc.prefix, st.name, app.name, threads), func(t *testing.T) {
						mk, closeNet := st.build(t, p)
						defer closeNet()
						got := make([]uint64, g.N)
						cluster.Run(p, threads, func(r int) comm.Layer { return nop{} }, func(h *cluster.Host) {
							s := mk(h.Rank)
							hg := pt.Hosts[h.Rank]
							e := gemini.New(h, hg, s, Inf, minU64)
							vals, rounds := app.run(e)
							if rounds == 0 {
								t.Errorf("%s: zero rounds", app.name)
							}
							for m := 0; m < hg.NumMasters; m++ {
								got[hg.L2G[m]] = vals[m]
							}
							h.Barrier()
							s.Stop()
						})
						if app.want != nil {
							equalU64(t, got, app.want, app.name)
							return
						}
						ranks := make([]float64, len(got))
						for i, v := range got {
							ranks[i] = math.Float64frombits(v)
						}
						if d := MaxRankDelta(prWant, ranks); d > 1e-9 {
							t.Fatalf("pagerank delta %.3e", d)
						}
					})
				}
			}
		}
	}
}

// TestGeminiSockets1kTakesFRG: the lci-sim-sockets-1k cells are the only
// Gemini runs whose stream messages fragment, so PageRank there must really
// send FRG packets.
func TestGeminiSockets1kTakesFRG(t *testing.T) {
	const p = 2
	g := graph.Kron(9, 5, 7, 16)
	pt := partition.Build(g, p, partition.EdgeCutByDst)
	fab := fabric.New(p, sockets1k())
	regs := []*telemetry.Registry{telemetry.NewEnabled(0), telemetry.NewEnabled(1)}
	cluster.Run(p, 2, func(r int) comm.Layer { return nop{} }, func(h *cluster.Host) {
		s := comm.NewLCIStream(fab.Endpoint(h.Rank), lci.Options{Telemetry: regs[h.Rank]})
		GeminiPageRank(gemini.New(h, pt.Hosts[h.Rank], s, Inf, minU64), 5)
		h.Barrier()
		s.Stop()
	})
	var frg int64
	for _, reg := range regs {
		frg += reg.Snapshot().Counters[lci.MetricTxFRG]
	}
	if frg == 0 {
		t.Fatal("no FRG packets sent")
	}
}

// masters returns an engine's per-master values, indexed by local id.
func masters(e *gemini.Engine) []uint64 {
	out := make([]uint64, e.HG.NumMasters)
	for m := range out {
		out[m] = e.Get(uint32(m))
	}
	return out
}

type nop struct{}

func (nop) Name() string { return "nop" }
func (nop) Exchange(uint32, [][]byte, []bool, []int, func(int, []byte)) {
	panic("unused")
}
func (nop) AllocBuf(n int) []byte      { return make([]byte, n) }
func (nop) Tracker() *memtrack.Tracker { return nil }
func (nop) Stop()                      {}
