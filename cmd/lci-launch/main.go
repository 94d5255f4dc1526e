// Command lci-launch runs an SPMD graph-analytics job as P real OS
// processes connected by the UDP fabric provider (internal/netfabric) over
// loopback — the repo's closest analogue to the paper's multi-host runs.
//
// The parent process binds every rank's UDP socket first (so there is no
// startup race), rejects bad flags and unknown apps, then re-executes
// itself P times with its own arguments; each child re-parses them and
// receives only its rank, the address list and the pre-bound socket from
// the parent (internal/launch). Each child builds the same graph and
// partition deterministically, runs the requested apps over an LCI layer
// on the UDP provider, verifies its masters against the single-host
// oracle, and the job agrees on the global verdict with an Allreduce that
// itself rides the communication layer (cluster.RunRank).
//
// Usage:
//
//	lci-launch -n 4 -apps bfs,pagerank -graph web -scale 10
//	lci-launch -n 4 -apps bfs -loss 0.05 -dup 0.02 -reorder 0.02
//	lci-launch -n 4 -metrics-addr 127.0.0.1:9380 -repeat 50
//
// With -metrics-addr the parent pre-binds one TCP listener per rank (rank r
// serves on port+r; port 0 picks ephemeral ports) and each child serves its
// telemetry registry there: /metrics (Prometheus text), /metrics.json,
// /debug/pprof/*, and on rank 0 /cluster + /cluster.json, which scrape every
// peer and merge. At exit the job gathers all ranks' snapshots over the
// communication layer itself and rank 0 prints the cluster-wide report
// (with -v) and writes it as JSON (with -metrics-out).
//
// With -trace-out (or LCI_TRACE=1 in the environment) every rank records
// message-lifecycle events into its tracing ring; the same HTTP endpoint
// additionally serves /debug/trace (Chrome trace-event JSON, merged across
// ranks on rank 0) and /debug/trace/flight (flight-recorder text dump). At
// exit the per-rank traces are gathered over the communication layer and
// rank 0 writes one merged timeline to -trace-out — load it in Perfetto or
// chrome://tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"

	"lcigraph/internal/abelian"
	"lcigraph/internal/apps"
	"lcigraph/internal/cluster"
	"lcigraph/internal/graph"
	"lcigraph/internal/launch"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

type options struct {
	launch.Config
	apps       []string
	source     uint
	prIters    int
	repeat     int
	verbose    bool
	metricsOut string
	traceOut   string
}

// knownApps are the names -apps accepts.
var knownApps = []string{"bfs", "pagerank", "cc", "sssp"}

func parseFlags() *options {
	o := &options{Config: launch.DefaultConfig("lci-launch")}
	o.RegisterFlags(flag.CommandLine)
	apps := flag.String("apps", "bfs,pagerank", "comma-separated apps: "+strings.Join(knownApps, ","))
	flag.UintVar(&o.source, "source", 0, "bfs/sssp source vertex")
	flag.IntVar(&o.prIters, "pr-iters", 10, "pagerank iterations")
	flag.IntVar(&o.repeat, "repeat", 1, "run the app list this many times (live-metrics window)")
	flag.BoolVar(&o.verbose, "v", false, "cluster-wide telemetry report at exit")
	flag.StringVar(&o.metricsOut, "metrics-out", "",
		"write the merged cluster telemetry snapshot to this JSON file (rank 0)")
	flag.StringVar(&o.traceOut, "trace-out", "",
		"enable message-lifecycle tracing and write the merged Chrome trace to this JSON file (rank 0)")
	err := o.Parse(flag.CommandLine, os.Args[1:])
	if err == nil {
		o.apps, err = parseApps(*apps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-launch:", err)
		os.Exit(2)
	}
	return o
}

// parseApps splits -apps, skipping empty entries, and rejects unknown
// names so no rank starts on a list it cannot run.
func parseApps(list string) ([]string, error) {
	var apps []string
	for _, app := range strings.Split(list, ",") {
		app = strings.TrimSpace(app)
		if app == "" {
			continue
		}
		if !slices.Contains(knownApps, app) {
			return nil, fmt.Errorf("-apps: unknown app %q (want %s)", app, strings.Join(knownApps, ","))
		}
		apps = append(apps, app)
	}
	return apps, nil
}

func main() {
	o := parseFlags()
	if launch.InChild() {
		os.Exit(child(o))
	}
	os.Exit(parent(o))
}

// parent binds all sockets, spawns one child per rank, and reports the
// job's verdict via the worst child exit code.
func parent(o *options) int {
	j, err := launch.NewJob(&o.Config)
	if err == nil && o.MetricsAddr != "" {
		err = j.BindMetrics(o.MetricsAddr)
	}
	if err == nil {
		// -trace-out implies tracing in every child.
		j.Trace = o.traceOut != ""
		err = j.Start(os.Args[1:], nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-launch:", err)
		return 2
	}
	return j.Wait()
}

// child is one rank: it joins the job through the inherited socket, runs
// every requested app, and exits 0 only if the whole job verified.
func child(o *options) int {
	r, err := o.Join()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-launch child:", err)
		return 2
	}
	g := graph.Named(o.Graph, o.Scale, o.Seed)
	pt := partition.Build(g, r.Size, partition.VertexCut)
	hg := pt.Hosts[r.Rank]

	failed := false
	gather := o.verbose || o.MetricsAddr != "" || o.metricsOut != ""
	var merged *telemetry.Snapshot
	var mergedTrace []byte
	r.Run(func(h *cluster.Host) {
		for it := 0; it < o.repeat; it++ {
			for _, app := range o.apps {
				rt := abelian.New(h, hg, partition.VertexCut)
				rt.Health = r.Mon
				bad, detail := runApp(rt, g, hg, app, o)
				totalBad := h.AllreduceSum(bad)
				if totalBad > 0 {
					failed = true
				}
				// With -repeat the later iterations only report failures;
				// the traffic still lands in the live metrics.
				if h.Rank == 0 && (it == 0 || totalBad > 0) {
					verdict := "PASS"
					if totalBad > 0 {
						verdict = fmt.Sprintf("FAIL (%d master mismatches)", totalBad)
					}
					fmt.Printf("lci-launch: %-10s n=%d graph=%s scale=%d rounds=%d  %s%s\n",
						app, r.Size, o.Graph, o.Scale, rt.Rounds, verdict, detail)
				}
			}
		}
		if gather {
			// Cluster-wide aggregation rides the communication layer itself:
			// every rank serializes its snapshot and rank 0 gathers them over
			// the collective tag, then merges. This works with no HTTP
			// endpoints at all (-v without -metrics-addr).
			snap, err := json.Marshal(r.Reg.Snapshot())
			if err != nil {
				fmt.Fprintf(os.Stderr, "lci-launch: marshal snapshot: %v\n", err)
				snap = []byte("{}")
			}
			parts := h.GatherBytes(0, snap, 1<<20)
			if h.Rank == 0 {
				snaps := make([]*telemetry.Snapshot, 0, len(parts))
				for rk, p := range parts {
					var s telemetry.Snapshot
					if err := json.Unmarshal(p, &s); err != nil {
						fmt.Fprintf(os.Stderr, "lci-launch: decode rank %d snapshot: %v\n", rk, err)
						continue
					}
					snaps = append(snaps, &s)
				}
				merged = telemetry.Merge(snaps...)
			}
		}
		if o.traceOut != "" && r.Tracer.Enabled() {
			// The trace merge rides the communication layer too: each rank's
			// ring drains into a Chrome trace-event blob, rank 0 gathers and
			// concatenates them into one timeline.
			blob := tracing.ChromeTrace(r.Tracer.Events(), r.Rank)
			parts := h.GatherBytes(0, blob, 16<<20)
			if h.Rank == 0 {
				doc, err := tracing.MergeChrome(parts)
				if err != nil {
					fmt.Fprintf(os.Stderr, "lci-launch: merge traces: %v\n", err)
				} else {
					mergedTrace = doc
				}
			}
		}
	})

	if merged != nil {
		if o.verbose || o.MetricsAddr != "" {
			fmt.Fprint(os.Stderr, merged.Report())
		}
		if o.metricsOut != "" {
			data, err := json.MarshalIndent(merged, "", "  ")
			if err == nil {
				err = launch.WriteFileAtomic(o.metricsOut, append(data, '\n'))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "lci-launch: write %s: %v\n", o.metricsOut, err)
			}
		}
	}
	if mergedTrace != nil {
		if err := launch.WriteFileAtomic(o.traceOut, mergedTrace); err != nil {
			fmt.Fprintf(os.Stderr, "lci-launch: write %s: %v\n", o.traceOut, err)
		} else {
			fmt.Fprintf(os.Stderr, "lci-launch: merged trace written to %s (open in Perfetto)\n", o.traceOut)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runApp runs one app on this rank's runtime and returns the number of
// this rank's masters that disagree with the single-host oracle, plus an
// optional detail suffix for the rank-0 report line.
func runApp(rt *abelian.Runtime, g *graph.Graph, hg *partition.HostGraph,
	app string, o *options) (bad int64, detail string) {

	switch app {
	case "bfs":
		f, _ := apps.BFS(rt, uint32(o.source))
		want := apps.OracleBFS(g, uint32(o.source))
		return cmpMasters(hg, f.Get, want), ""
	case "sssp":
		f, _ := apps.SSSP(rt, uint32(o.source))
		want := apps.OracleSSSP(g, uint32(o.source))
		return cmpMasters(hg, f.Get, want), ""
	case "cc":
		f, _ := apps.CC(rt)
		want := apps.OracleCC(g)
		return cmpMasters(hg, f.Get, want), ""
	case "pagerank":
		f := apps.PageRank(rt, o.prIters)
		want := apps.OraclePageRank(g, o.prIters)
		var maxDelta float64
		for m := 0; m < hg.NumMasters; m++ {
			d := math.Abs(math.Float64frombits(f.Get(uint32(m))) - want[hg.L2G[m]])
			if d > maxDelta {
				maxDelta = d
			}
		}
		// Agree on the global max delta: non-negative floats order the
		// same as their IEEE-754 bit patterns.
		worst := rt.Host.AllreduceMax(int64(math.Float64bits(maxDelta)))
		globalMax := math.Float64frombits(uint64(worst))
		if globalMax > 1e-9 {
			return 1, fmt.Sprintf("  maxDelta=%.3e", globalMax)
		}
		return 0, fmt.Sprintf("  maxDelta=%.3e", globalMax)
	default:
		panic("lci-launch: unvalidated app " + app)
	}
}

// cmpMasters counts this rank's masters whose value disagrees with the
// oracle's global answer.
func cmpMasters(hg *partition.HostGraph, get func(lv uint32) uint64, want []uint64) int64 {
	var bad int64
	for m := 0; m < hg.NumMasters; m++ {
		if get(uint32(m)) != want[hg.L2G[m]] {
			bad++
		}
	}
	return bad
}
