package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
)

// Ablations quantify the design choices DESIGN.md §5 calls out: MPI's
// ordering guarantee, the probe layer's small-message aggregation, Gemini's
// adaptive sparse/dense engine, direction-optimizing BFS, and the packet
// pool's locality shards.

// AblationAdaptive compares Gemini's pure sparse push against the adaptive
// sparse/dense engine on cc, whose full initial frontier rewards dense
// rounds.
func AblationAdaptive(e ExpConfig) string {
	g := e.inputs()["kron"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: Gemini sparse vs adaptive dense/sparse (cc, kron, P=%d)\n", p)
	for _, adaptive := range []bool{false, true} {
		cfg := e.config("cc", LCI, p)
		cfg.Adaptive = adaptive
		mean, res := meanOf(e.Repeats, func() *Result { return RunGemini(g, cfg) })
		name := "sparse only"
		if adaptive {
			name = "adaptive"
		}
		fmt.Fprintf(&b, "  %-12s total %12s  comm(max) %12s  frames %d\n",
			name, mean.Round(time.Microsecond), res.MaxComm().Round(time.Microsecond),
			res.Net.Frames)
	}
	return b.String()
}

// AblationDirectionBFS compares plain push BFS against the
// direction-optimizing variant on the dense-frontier kron input.
func AblationDirectionBFS(e ExpConfig) string {
	g := e.inputs()["kron"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: BFS push vs direction-optimizing (Abelian lci, kron, P=%d)\n", p)
	for _, app := range []string{"bfs", "bfs-dir"} {
		cfg := e.config(app, LCI, p)
		mean, res := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
		fmt.Fprintf(&b, "  %-9s total %12s  frames %d\n",
			app, mean.Round(time.Microsecond), res.Net.Frames)
	}
	return b.String()
}

// AblationOrdering measures what MPI's non-overtaking guarantee costs the
// probe layer (UnsafeNoOrdering disables receiver-side reorder buffering).
func AblationOrdering(e ExpConfig) string {
	g := e.inputs()["rmat"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: MPI message-ordering cost (Abelian mpi-probe, rmat, P=%d)\n", p)
	for _, noOrder := range []bool{false, true} {
		cfg := e.config("pagerank", MPIProbe, p)
		cfg.Impl.UnsafeNoOrdering = noOrder
		mean, res := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
		name := "ordered (MPI semantics)"
		if noOrder {
			name = "unordered (LCI-like)"
		}
		fmt.Fprintf(&b, "  %-26s total %12s  comm(max) %12s\n",
			name, mean.Round(time.Microsecond), res.MaxComm().Round(time.Microsecond))
	}
	return b.String()
}

// AblationPoolLocality measures the locality-aware packet pool: message
// rate with per-thread shards versus a single shared shard.
func AblationPoolLocality(threads, perThread int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: packet-pool locality shards (%d sender threads)\n", threads)
	for _, shards := range []int{1, threads} {
		rate := lciRateShards(threads, perThread, 8, shards)
		fmt.Fprintf(&b, "  shards=%-3d rate %12.0f msg/s\n", shards, rate)
	}
	return b.String()
}

// lciRateShards is MicroRate's LCI path with a configurable shard count.
func lciRateShards(threads, perThread, size, shards int) float64 {
	fab := fabric.New(2, fabric.OmniPath())
	a := lci.NewEndpoint(fab.Endpoint(0), lci.Options{Workers: shards})
	bep := lci.NewEndpoint(fab.Endpoint(1), lci.Options{})
	stop := make(chan struct{})
	defer close(stop)
	go a.Serve(stop)
	go bep.Serve(stop)

	total := threads * perThread
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := a.Pool().RegisterWorker()
			buf := make([]byte, size)
			for i := 0; i < perThread; i++ {
				for {
					if _, ok := a.SendEnq(w, 1, 0, buf); ok {
						break
					}
					runtime.Gosched()
				}
			}
		}()
	}
	var pending []*lci.Request
	got := 0
	for got < total {
		if r, ok := bep.RecvDeq(); ok {
			if r.Done() {
				r.Release()
				got++
			} else {
				pending = append(pending, r)
			}
			continue
		}
		keep := pending[:0]
		for _, r := range pending {
			if r.Done() {
				r.Release()
				got++
			} else {
				keep = append(keep, r)
			}
		}
		pending = keep
		runtime.Gosched()
	}
	el := time.Since(start)
	wg.Wait()
	return float64(total) / el.Seconds()
}

// AblationAggregation measures the probe layer's buffered network layer:
// with aggregation versus shipping every logical message alone (the naive
// baseline of §III-B before the buffered layer was added).
func AblationAggregation(e ExpConfig) string {
	g := e.inputs()["rmat"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: probe-layer aggregation (Abelian mpi-probe, rmat, P=%d)\n", p)
	for _, agg := range []bool{true, false} {
		cfg := e.config("pagerank", MPIProbe, p)
		cfg.NoAggregation = !agg
		mean, _ := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
		name := "aggregated (buffered layer)"
		if !agg {
			name = "per-message (naive)"
		}
		fmt.Fprintf(&b, "  %-28s total %12s\n", name, mean.Round(time.Microsecond))
	}
	return b.String()
}
