package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/mpi"
)

// Experiments drives the full paper reproduction. Every Fig*/Table*
// function returns a formatted text block (and is exercised by
// bench_test.go / cmd/experiments).

// ExpConfig scales the experiment suite.
type ExpConfig struct {
	Scale   int // graph scale (2^Scale vertices); paper inputs are 28-30
	Hosts   []int
	Threads int
	Repeats int // mean of N runs (paper uses 5)
	PRIters int
	Seed    int64
	Shards  int // progress shards per rank on the LCI layers (≤ 1: one)
	// Profile and Impl are the NIC and MPI profiles of every run whose
	// table does not sweep them (zero: OmniPath, IntelMPI).
	Profile fabric.Profile
	Impl    mpi.Impl
}

// DefaultExp returns the laptop-scale defaults.
func DefaultExp() ExpConfig {
	return ExpConfig{
		Scale:   11,
		Hosts:   []int{2, 4, 8},
		Threads: 2,
		Repeats: 3,
		PRIters: 10,
		Seed:    42,
		Shards:  1,
		Profile: fabric.OmniPath(),
		Impl:    mpi.IntelMPI(),
	}
}

// config is one run of app over layer on p hosts with the suite's settings,
// defaults filled in.
func (e ExpConfig) config(app, layer string, p int) Config {
	c := Config{App: app, Layer: layer, Hosts: p, Threads: e.Threads, Source: 1,
		PRIters: e.PRIters, Shards: e.Shards, Profile: e.Profile, Impl: e.Impl}
	c.fill()
	return c
}

// inputs builds the three Table I substitutes at the configured scale.
func (e ExpConfig) inputs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"web":  graph.Named("web", e.Scale, e.Seed),
		"kron": graph.Named("kron", e.Scale, e.Seed),
		"rmat": graph.Named("rmat", e.Scale, e.Seed),
	}
}

// geomean returns the geometric mean of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// meanOf runs fn Repeats times and returns the mean wall time along with
// the last result (for non-timing fields).
func meanOf(repeats int, fn func() *Result) (time.Duration, *Result) {
	var total time.Duration
	var last *Result
	for i := 0; i < repeats; i++ {
		last = fn()
		total += last.Wall
	}
	return total / time.Duration(repeats), last
}

// Table1 prints the input properties (Table I).
func Table1(e ExpConfig) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: inputs and their key properties (scale %d substitutes)\n", e.Scale)
	names := []string{"web", "kron", "rmat"}
	ins := e.inputs()
	for _, n := range names {
		p := graph.Analyze(n, ins[n])
		fmt.Fprintf(&b, "  %s\n", p)
	}
	return b.String()
}

// Fig1Table prints the microbenchmark (Fig. 1).
func Fig1Table(iters int, prof fabric.Profile, impl mpi.Impl) string {
	rs := Fig1([]int{8, 256, 4096}, []int{1, 2, 4, 8}, iters, prof, impl)
	var b strings.Builder
	b.WriteString("Fig 1: latency and message rate, MPI no-probe / MPI probe / LCI queue\n")
	b.WriteString(FormatMicro(rs))

	// Headline ratio: probe vs queue latency at 8 bytes.
	var probe8, queue8 time.Duration
	for _, r := range rs {
		if r.Size == 8 && r.Latency > 0 {
			switch r.Iface {
			case IfaceProbe:
				probe8 = r.Latency
			case IfaceQueue:
				queue8 = r.Latency
			}
		}
	}
	if queue8 > 0 {
		fmt.Fprintf(&b, "probe/queue 8B latency ratio: %.2fx (paper: up to 3.5x)\n",
			float64(probe8)/float64(queue8))
	}
	return b.String()
}

// runMatrix runs one framework across apps × graphs × hosts × layers.
type matrixRow struct {
	App, Graph string
	Hosts      int
	Layer      string
	Time       time.Duration
	Res        *Result
}

func (e ExpConfig) runMatrix(framework string, layers []string, hosts []int,
	graphs map[string]*graph.Graph, gnames []string) []matrixRow {

	var rows []matrixRow
	for _, app := range Apps() {
		for _, gn := range gnames {
			g := graphs[gn]
			for _, p := range hosts {
				for _, layer := range layers {
					cfg := e.config(app, layer, p)
					mean, res := meanOf(e.Repeats, func() *Result {
						if framework == "gemini" {
							return RunGemini(g, cfg)
						}
						return RunAbelian(g, cfg)
					})
					rows = append(rows, matrixRow{app, gn, p, layer, mean, res})
				}
			}
		}
	}
	return rows
}

func formatMatrix(title string, rows []matrixRow, layers []string) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "  %-9s %-5s %-3s", "app", "graph", "P")
	for _, l := range layers {
		fmt.Fprintf(&b, " %12s", l)
	}
	b.WriteString("\n")

	// Group rows by (app, graph, hosts).
	type key struct {
		app, g string
		p      int
	}
	cells := map[key]map[string]time.Duration{}
	var keys []key
	for _, r := range rows {
		k := key{r.App, r.Graph, r.Hosts}
		if cells[k] == nil {
			cells[k] = map[string]time.Duration{}
			keys = append(keys, k)
		}
		cells[k][r.Layer] = r.Time
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		if keys[i].g != keys[j].g {
			return keys[i].g < keys[j].g
		}
		return keys[i].p < keys[j].p
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-9s %-5s %-3d", k.app, k.g, k.p)
		for _, l := range layers {
			fmt.Fprintf(&b, " %12s", cells[k][l].Round(time.Microsecond))
		}
		b.WriteString("\n")
	}

	// Geomean speedups at the largest host count vs the first layer.
	maxP := 0
	for _, k := range keys {
		if k.p > maxP {
			maxP = k.p
		}
	}
	base := layers[0]
	for _, l := range layers[1:] {
		var ratios []float64
		for _, k := range keys {
			if k.p != maxP {
				continue
			}
			if a, ok := cells[k][l]; ok && cells[k][base] > 0 {
				ratios = append(ratios, float64(a)/float64(cells[k][base]))
			}
		}
		if len(ratios) > 0 {
			fmt.Fprintf(&b, "  geomean speedup of %s over %s at P=%d: %.2fx\n",
				base, l, maxP, geomean(ratios))
		}
	}
	return b.String()
}

// Fig3 runs the Abelian matrix (Fig. 3: total execution time, LCI vs
// MPI-Probe vs MPI-RMA).
func Fig3(e ExpConfig) string {
	graphs := e.inputs()
	rows := e.runMatrix("abelian", Layers(), e.Hosts, graphs, []string{"web", "kron", "rmat"})
	return formatMatrix("Fig 3: Abelian total execution time", rows, Layers())
}

// Fig4 runs the Gemini matrix (Fig. 4: LCI vs MPI-Probe).
func Fig4(e ExpConfig) string {
	graphs := e.inputs()
	rows := e.runMatrix("gemini", StreamKinds(), e.Hosts, graphs, []string{"web", "kron", "rmat"})
	return formatMatrix("Fig 4: Gemini total execution time", rows, StreamKinds())
}

// Fig5 reports communication-buffer footprints (max and min across hosts)
// for Abelian with LCI vs MPI-RMA.
func Fig5(e ExpConfig) string {
	g := e.inputs()["rmat"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: communication-buffer footprint, Abelian, rmat, P=%d\n", p)
	fmt.Fprintf(&b, "  %-9s %-9s %14s %14s\n", "app", "layer", "max(bytes)", "min(bytes)")
	for _, app := range Apps() {
		for _, layer := range []string{LCI, MPIRMA} {
			res := RunAbelian(g, e.config(app, layer, p))
			fmt.Fprintf(&b, "  %-9s %-9s %14d %14d\n", app, layer, res.MemMax, res.MemMin)
		}
	}
	return b.String()
}

// Fig6 reports the compute vs non-overlapped-communication breakdown
// (kron, largest P, all layers).
func Fig6(e ExpConfig) string {
	g := e.inputs()["kron"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6: compute vs non-overlapped comm, Abelian, kron, P=%d\n", p)
	fmt.Fprintf(&b, "  %-9s %-9s %12s %12s %12s\n", "app", "layer", "compute", "comm", "total")
	for _, app := range Apps() {
		for _, layer := range Layers() {
			res := RunAbelian(g, e.config(app, layer, p))
			fmt.Fprintf(&b, "  %-9s %-9s %12s %12s %12s\n", app, layer,
				res.MaxCompute().Round(time.Microsecond),
				res.MaxComm().Round(time.Microsecond),
				res.Wall.Round(time.Microsecond))
		}
	}
	return b.String()
}

// Table2 compares the two cluster profiles (Stampede2 Omni-Path vs
// Stampede1 InfiniBand) on Abelian rmat at the largest P, LCI vs MPI-Probe.
func Table2(e ExpConfig) string {
	g := e.inputs()["rmat"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: Abelian rmat @ P=%d, per NIC profile (seconds)\n", p)
	fmt.Fprintf(&b, "  %-9s", "app")
	profs := []fabric.Profile{fabric.OmniPath(), fabric.InfiniBand()}
	for _, pr := range profs {
		for _, layer := range Layers() {
			fmt.Fprintf(&b, " %20s", pr.Name+"/"+layer)
		}
	}
	b.WriteString("\n")
	for _, app := range Apps() {
		fmt.Fprintf(&b, "  %-9s", app)
		for _, pr := range profs {
			for _, layer := range Layers() {
				cfg := e.config(app, layer, p)
				cfg.Profile = pr
				mean, _ := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
				fmt.Fprintf(&b, " %20s", mean.Round(time.Microsecond))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table3 documents the two simulated cluster profiles.
func Table3() string {
	var b strings.Builder
	b.WriteString("Table III: simulated cluster profiles\n")
	fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s %12s\n",
		"profile", "ringDepth", "eagerB", "sendCost", "putCost", "cost/KiB")
	for _, p := range []fabric.Profile{fabric.OmniPath(), fabric.InfiniBand()} {
		fmt.Fprintf(&b, "  %-12s %10d %10d %10s %10s %12s\n",
			p.Name, p.RingDepth, p.EagerLimit, p.SendCost, p.PutCost, p.ByteCost)
	}
	return b.String()
}

// Portability runs a subset of apps across all three transport profiles —
// including the RDMA-less sockets class, where LCI and MPI both fall back
// to software fragmentation — reproducing §VI's claim that LCI's few
// primitive operations port everywhere.
func Portability(e ExpConfig) string {
	g := e.inputs()["rmat"]
	p := e.Hosts[len(e.Hosts)-1]
	profs := []fabric.Profile{fabric.OmniPath(), fabric.InfiniBand(), fabric.Sockets()}
	var b strings.Builder
	fmt.Fprintf(&b, "Portability: Abelian rmat @ P=%d across transports\n", p)
	fmt.Fprintf(&b, "  %-9s %-9s", "app", "layer")
	for _, pr := range profs {
		fmt.Fprintf(&b, " %14s", pr.Name)
	}
	b.WriteString("\n")
	for _, app := range []string{"cc", "pagerank"} {
		for _, layer := range []string{LCI, MPIProbe} {
			fmt.Fprintf(&b, "  %-9s %-9s", app, layer)
			for _, pr := range profs {
				cfg := e.config(app, layer, p)
				cfg.Profile = pr
				mean, _ := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
				fmt.Fprintf(&b, " %14s", mean.Round(time.Microsecond))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Table4 compares MPI implementation profiles (two-sided and RMA) against
// LCI on Abelian (pagerank and cc, largest P, rmat).
func Table4(e ExpConfig) string {
	g := e.inputs()["rmat"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: other MPI implementations, Abelian rmat @ P=%d\n", p)
	fmt.Fprintf(&b, "  %-9s %-18s %12s\n", "app", "runtime", "time")
	for _, app := range []string{"cc", "pagerank"} {
		cfg := e.config(app, LCI, p)
		mean, _ := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
		fmt.Fprintf(&b, "  %-9s %-18s %12s\n", app, "lci", mean.Round(time.Microsecond))
		for _, impl := range mpi.Impls() {
			for _, layer := range []string{MPIProbe, MPIRMA} {
				cfg := e.config(app, layer, p)
				cfg.Impl = impl
				mean, _ := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
				fmt.Fprintf(&b, "  %-9s %-18s %12s\n", app, impl.Name+"/"+layer,
					mean.Round(time.Microsecond))
			}
		}
	}
	return b.String()
}
