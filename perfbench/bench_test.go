package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"lcigraph/internal/abelian"
	"lcigraph/internal/apps"
	"lcigraph/internal/bench"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/partition"
	"lcigraph/internal/serve"
	"lcigraph/internal/telemetry"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50},   // too few samples for any tail: falls back to the median
		{20, 50},  // p50 has exactly 10 beyond it
		{99, 50},  // p90 would leave 9
		{100, 90}, // p90 has exactly 10 beyond it
		{600, 90}, // p99 would leave 6
		{1000, 99},
		{3600, 99}, // p99.9 would leave 3
		{10000, 99.9},
		{100000, 99.99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.n >= 20 {
			if beyond := c.n - rankOf(got, c.n) - 1; beyond < 10 {
				t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, got, beyond)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Rank 0 main lane: op [0,100] with 5 ns of idle polls, two calls,
		// the first with a call nested inside it.
		{kind: kOp, start: 0, end: 100, idle: 5},
		{kind: kExchange, start: 10, end: 30},
		{kind: kProvSend, start: 12, end: 20},
		{kind: kExchange, start: 40, end: 50},
		// Overlapping calls on another lane inside one op: the overlap is
		// covered once.
		{kind: kOp, lane: 1, start: 0, end: 100},
		{kind: kSendMsg, lane: 1, start: 10, end: 30},
		{kind: kSendMsg, lane: 1, start: 20, end: 40},
		// A span on another rank is nobody's child.
		{kind: kRecvMsg, rank: 1, start: 15, end: 25},
	}
	got := selfTimes(spans)
	want := map[kind]int64{
		kOp:       (100 - 20 - 10 - 5) + (100 - 30),
		kExchange: (20 - 8) + 10,
		kProvSend: 8,
		kSendMsg:  20 + 20,
		kRecvMsg:  10,
	}
	for k := kind(0); k < numKinds; k++ {
		if got[k] != want[k] {
			t.Errorf("%s self = %d, want %d", kindNames[k], got[k], want[k])
		}
	}
}

// TestWrappersKeepProgramPaths checks that every wrapper still satisfies
// the interfaces the program type-asserts: serve.New accepts a wrapped
// layer, lci.NewSharded shards a wrapped provider, and the stream keeps its
// telemetry.
func TestWrappersKeepProgramPaths(t *testing.T) {
	tr := newTracer(1)
	fab := fabric.New(1, fabric.OmniPath())
	var fep fabric.Provider = &tracedProvider{in: fab.Endpoint(0), t: tr}
	if _, ok := fep.(fabric.MetricsRegistrar); !ok {
		t.Fatal("wrapped provider lost fabric.MetricsRegistrar")
	}
	if s := lci.NewSharded(fep, lci.Options{Shards: 2}); s.Shards() != 2 {
		t.Fatalf("wrapped provider built %d shards, want 2 (fabric.Sharder lost)", s.Shards())
	}

	fab = fabric.New(1, fabric.OmniPath())
	opt := bench.LCIOptions(1, 1)
	opt.Telemetry = telemetry.NewEnabled(0)
	l := comm.NewLCILayer(&tracedProvider{in: fab.Endpoint(0), t: tr}, opt)
	defer l.Stop()
	var layer comm.Layer = &tracedLayer{in: l, t: tr}
	if _, ok := layer.(comm.TelemetryProvider); !ok {
		t.Fatal("wrapped layer lost comm.TelemetryProvider")
	}
	h := &cluster.Host{Rank: 0, P: 1, Layer: layer}
	pt := partition.Build(graph.Path(8), 1, partition.EdgeCut)
	serve.New(h, pt, serve.Config{}) // panics without comm.AsyncLayer

	var s comm.Stream = &tracedStream{in: comm.NewLCIStream(fabric.New(1, fabric.OmniPath()).Endpoint(0), opt), t: tr}
	defer s.Stop()
	if _, ok := s.(comm.TelemetryProvider); !ok {
		t.Fatal("wrapped stream lost comm.TelemetryProvider")
	}
}

// TestTracedPageRank runs a small traced PageRank through every layer and
// provider wrapper: the answer must still match the oracle, and the tracer
// must have seen the calls.
func TestTracedPageRank(t *testing.T) {
	g := graph.Kron(7, 8, 3, 0)
	pt := partition.Build(g, ranks, partition.VertexCut)
	fab := fabric.New(ranks, fabric.OmniPath())
	feps := []fabric.Provider{fab.Endpoint(0), fab.Endpoint(1)}
	tr := newTracer(ranks)
	wrapProviders(feps, tr)
	tr.resume()
	got := make([]float64, g.N)
	cluster.Run(ranks, threads, func(r int) comm.Layer {
		return &tracedLayer{in: comm.NewLCILayer(feps[r], bench.LCIOptions(ranks, threads)), t: tr, rank: r}
	}, func(h *cluster.Host) {
		hg := pt.Hosts[h.Rank]
		ts, idle := tr.beginOp(h.Rank, 0)
		f := apps.PageRank(abelian.New(h, hg, partition.VertexCut), prIters)
		tr.endOp(h.Rank, ts, idle)
		for lv := 0; lv < hg.NumMasters; lv++ {
			got[hg.L2G[lv]] = math.Float64frombits(f.Get(uint32(lv)))
		}
	})
	tr.pause()
	if d := apps.MaxRankDelta(apps.OraclePageRank(g, prIters), got); d > 1e-9 {
		t.Fatalf("traced pagerank differs from the oracle by %g", d)
	}
	for _, k := range []kind{kOp, kExchange, kProvSend} {
		if tr.stats[k].calls.Load() == 0 {
			t.Errorf("no %s calls traced", kindNames[k])
		}
	}
	self := selfTimes(tr.snapshot())
	if self[kOp] <= 0 || self[kOp] >= tr.stats[kOp].ns.Load() {
		t.Errorf("op self time %d outside (0, %d)", self[kOp], tr.stats[kOp].ns.Load())
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the benchmark reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for i, w := range spec.Workloads {
		if i >= len(names) || names[i] != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q; perfbench has %v", i, w.Name, names)
		}
	}
	w := &window{}
	w.ok(1)
	w.wall = 1
	e2e := endToEnd(&passResult{all: w, segs: []*window{w}, setups: []setupTimes{{total: 1}}})
	check := func(what string, listed []struct{ Name, Unit string }, units map[string]string) {
		seen := map[string]bool{}
		for _, m := range listed {
			seen[m.Name] = true
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): perfbench reports unit %q", what, m.Name, m.Unit, u)
			}
		}
		var missing []string
		for n := range units {
			if !seen[n] {
				missing = append(missing, n)
			}
		}
		sort.Strings(missing)
		if len(missing) > 0 {
			t.Errorf("%s metrics missing from BENCHMARK.json: %v", what, missing)
		}
	}
	e2eUnits := map[string]string{}
	for n, m := range e2e {
		e2eUnits[n] = m.Unit
	}
	check("end_to_end", spec.EndToEnd, e2eUnits)
	check("per_layer", spec.PerLayer, layerUnits)
}
