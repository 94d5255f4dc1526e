package lcigraph

// One benchmark per paper table/figure (DESIGN.md §4). Each uses small
// default scales so `go test -bench=.` completes on a laptop; use
// cmd/experiments for the full sweeps.

import (
	"fmt"
	"testing"

	"lcigraph/internal/bench"
	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/mpi"
)

const (
	benchScale = 10
	benchHosts = 4
)

func benchGraph(name string) *graph.Graph { return graph.Named(name, benchScale, 42) }

// BenchmarkFig1Latency measures one-way 8B latency per interface.
func BenchmarkFig1Latency(b *testing.B) {
	for _, iface := range bench.Ifaces() {
		for _, size := range []int{8, 4096} {
			b.Run(fmt.Sprintf("%s/%dB", iface, size), func(b *testing.B) {
				lat := bench.MicroLatency(iface, size, b.N, fabric.OmniPath(), mpi.IntelMPI())
				b.ReportMetric(float64(lat.Nanoseconds()), "ns/msg")
			})
		}
	}
}

// BenchmarkFig1Rate measures aggregate message rate vs sender threads.
func BenchmarkFig1Rate(b *testing.B) {
	for _, iface := range bench.Ifaces() {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/%dthreads", iface, threads), func(b *testing.B) {
				per := b.N/threads + 1
				rate := bench.MicroRate(iface, threads, per, 8, fabric.OmniPath(), mpi.IntelMPI())
				b.ReportMetric(rate, "msgs/s")
			})
		}
	}
}

// BenchmarkTable1Gen regenerates the Table I inputs.
func BenchmarkTable1Gen(b *testing.B) {
	for _, name := range graph.Inputs() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graph.Named(name, benchScale, 42)
				p := graph.Analyze(name, g)
				b.ReportMetric(float64(p.E), "edges")
			}
		})
	}
}

func abelianCase(b *testing.B, app, gname, layer string) {
	b.Helper()
	g := benchGraph(gname)
	cfg := bench.Config{App: app, Layer: layer, Hosts: benchHosts, Threads: 2,
		Source: 1, PRIters: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := bench.RunAbelian(g, cfg)
		// ns/op includes per-iteration setup (partitioning, fabric, pool
		// allocation); wall-ns is the app run itself, the number the
		// experiment harness reports.
		b.ReportMetric(float64(res.Wall.Nanoseconds()), "wall-ns")
		b.ReportMetric(float64(res.MaxComm().Nanoseconds()), "comm-ns")
	}
}

// BenchmarkFig3 regenerates the Abelian execution-time matrix.
func BenchmarkFig3(b *testing.B) {
	for _, app := range bench.Apps() {
		for _, gname := range graph.Inputs() {
			for _, layer := range bench.Layers() {
				b.Run(fmt.Sprintf("%s/%s/%s", app, gname, layer), func(b *testing.B) {
					abelianCase(b, app, gname, layer)
				})
			}
		}
	}
}

// BenchmarkFig4 regenerates the Gemini execution-time comparison.
func BenchmarkFig4(b *testing.B) {
	for _, app := range bench.Apps() {
		for _, layer := range bench.StreamKinds() {
			b.Run(fmt.Sprintf("%s/%s", app, layer), func(b *testing.B) {
				g := benchGraph("kron")
				cfg := bench.Config{App: app, Layer: layer, Hosts: benchHosts,
					Threads: 2, Source: 1, PRIters: 5}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := bench.RunGemini(g, cfg)
					b.ReportMetric(float64(res.Wall.Nanoseconds()), "wall-ns")
					b.ReportMetric(float64(res.MaxComm().Nanoseconds()), "comm-ns")
				}
			})
		}
	}
}

// BenchmarkFig5Mem reports the communication-buffer footprint per layer.
func BenchmarkFig5Mem(b *testing.B) {
	for _, layer := range []string{bench.LCI, bench.MPIRMA} {
		b.Run(layer, func(b *testing.B) {
			g := benchGraph("rmat")
			cfg := bench.Config{App: "pagerank", Layer: layer, Hosts: benchHosts,
				Threads: 2, PRIters: 5}
			for i := 0; i < b.N; i++ {
				res := bench.RunAbelian(g, cfg)
				b.ReportMetric(float64(res.MemMax), "maxB")
				b.ReportMetric(float64(res.MemMin), "minB")
			}
		})
	}
}

// BenchmarkFig6Breakdown reports compute vs non-overlapped comm per layer
// on kron.
func BenchmarkFig6Breakdown(b *testing.B) {
	for _, app := range bench.Apps() {
		for _, layer := range bench.Layers() {
			b.Run(fmt.Sprintf("%s/%s", app, layer), func(b *testing.B) {
				g := benchGraph("kron")
				cfg := bench.Config{App: app, Layer: layer, Hosts: benchHosts,
					Threads: 2, Source: 1, PRIters: 5}
				for i := 0; i < b.N; i++ {
					res := bench.RunAbelian(g, cfg)
					b.ReportMetric(float64(res.Wall.Nanoseconds()), "wall-ns")
					b.ReportMetric(float64(res.MaxCompute().Nanoseconds()), "compute-ns")
					b.ReportMetric(float64(res.MaxComm().Nanoseconds()), "comm-ns")
				}
			})
		}
	}
}

// BenchmarkTable2 compares NIC profiles (Stampede2 Omni-Path vs Stampede1
// InfiniBand) on Abelian rmat.
func BenchmarkTable2(b *testing.B) {
	for _, prof := range []fabric.Profile{fabric.OmniPath(), fabric.InfiniBand()} {
		for _, layer := range []string{bench.LCI, bench.MPIProbe} {
			b.Run(fmt.Sprintf("%s/%s", prof.Name, layer), func(b *testing.B) {
				g := benchGraph("rmat")
				cfg := bench.Config{App: "cc", Layer: layer, Hosts: benchHosts,
					Threads: 2, Profile: prof}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := bench.RunAbelian(g, cfg)
					b.ReportMetric(float64(res.Wall.Nanoseconds()), "wall-ns")
				}
			})
		}
	}
}

// BenchmarkAllToAll measures aggregate small-message rate with every host
// blasting every other host (the "many concurrent pending receives" claim).
func BenchmarkAllToAll(b *testing.B) {
	for _, iface := range bench.Ifaces() {
		for _, hosts := range []int{2, 4} {
			b.Run(fmt.Sprintf("%s/P%d", iface, hosts), func(b *testing.B) {
				per := b.N/(hosts*(hosts-1)) + 1
				rate := bench.AllToAllRate(iface, hosts, per, 8, fabric.OmniPath(), mpi.IntelMPI())
				b.ReportMetric(rate, "msgs/s")
			})
		}
	}
}

// BenchmarkPortability runs cc across the three transports on LCI.
func BenchmarkPortability(b *testing.B) {
	g := benchGraph("rmat")
	for _, prof := range []fabric.Profile{fabric.OmniPath(), fabric.InfiniBand(), fabric.Sockets()} {
		b.Run(prof.Name, func(b *testing.B) {
			cfg := bench.Config{App: "cc", Layer: bench.LCI, Hosts: benchHosts,
				Threads: 2, Profile: prof}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bench.RunAbelian(g, cfg)
			}
		})
	}
}

// BenchmarkThreadScaling sweeps compute threads per host on LCI and probe.
func BenchmarkThreadScaling(b *testing.B) {
	g := benchGraph("kron")
	for _, layer := range []string{bench.LCI, bench.MPIProbe} {
		for _, threads := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/T%d", layer, threads), func(b *testing.B) {
				cfg := bench.Config{App: "pagerank", Layer: layer, Hosts: benchHosts,
					Threads: threads, PRIters: 5}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := bench.RunAbelian(g, cfg)
					b.ReportMetric(float64(res.Wall.Nanoseconds()), "wall-ns")
				}
			})
		}
	}
}

// BenchmarkAblationOrdering quantifies MPI's non-overtaking guarantee.
func BenchmarkAblationOrdering(b *testing.B) {
	g := benchGraph("rmat")
	for _, noOrder := range []bool{false, true} {
		name := "ordered"
		if noOrder {
			name = "unordered"
		}
		b.Run(name, func(b *testing.B) {
			impl := mpi.IntelMPI()
			impl.UnsafeNoOrdering = noOrder
			cfg := bench.Config{App: "pagerank", Layer: bench.MPIProbe, Hosts: benchHosts,
				Threads: 2, PRIters: 5, Impl: impl}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bench.RunAbelian(g, cfg)
			}
		})
	}
}

// BenchmarkAblationAggregation quantifies the probe layer's buffered
// network layer versus naive per-message sends.
func BenchmarkAblationAggregation(b *testing.B) {
	g := benchGraph("rmat")
	for _, noAgg := range []bool{false, true} {
		name := "aggregated"
		if noAgg {
			name = "per-message"
		}
		b.Run(name, func(b *testing.B) {
			cfg := bench.Config{App: "pagerank", Layer: bench.MPIProbe, Hosts: benchHosts,
				Threads: 2, PRIters: 5, NoAggregation: noAgg}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bench.RunAbelian(g, cfg)
			}
		})
	}
}

// BenchmarkTable4 compares MPI implementation profiles against LCI.
func BenchmarkTable4(b *testing.B) {
	g := benchGraph("rmat")
	run := func(b *testing.B, layer string, impl mpi.Impl) {
		cfg := bench.Config{App: "pagerank", Layer: layer, Hosts: benchHosts,
			Threads: 2, PRIters: 5, Impl: impl}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := bench.RunAbelian(g, cfg)
			b.ReportMetric(float64(res.Wall.Nanoseconds()), "wall-ns")
		}
	}
	b.Run("lci", func(b *testing.B) { run(b, bench.LCI, mpi.IntelMPI()) })
	for _, impl := range mpi.Impls() {
		impl := impl
		for _, layer := range []string{bench.MPIProbe, bench.MPIRMA} {
			layer := layer
			b.Run(fmt.Sprintf("%s/%s", impl.Name, layer), func(b *testing.B) {
				run(b, layer, impl)
			})
		}
	}
}
