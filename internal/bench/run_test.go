package bench

import (
	"strings"
	"testing"

	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/mpi"
)

// testGraph is a small weighted scale-free graph, symmetrized so CC is
// meaningful.
func testGraph() *graph.Graph {
	return graph.Kron(7, 6, 11, 32) // 128 vertices, ~1500 directed edges
}

func testCfg(app, layer string) Config {
	return Config{
		App: app, Layer: layer,
		Hosts: 3, Threads: 2,
		Source:  5,
		PRIters: 5,
		Profile: fabric.TestProfile(),
		Impl:    mpi.TestImpl(),
	}
}

// TestAbelianAllAppsAllLayers is the core integration test: every app on
// every communication layer must reproduce the single-host oracle exactly
// (pagerank to float tolerance).
func TestAbelianAllAppsAllLayers(t *testing.T) {
	g := testGraph()
	for _, app := range Apps() {
		for _, layer := range Layers() {
			t.Run(app+"/"+layer, func(t *testing.T) {
				r := RunAbelian(g, testCfg(app, layer))
				if err := Verify(g, r); err != nil {
					t.Fatalf("%s on %s: %v", app, layer, err)
				}
				if r.Rounds == 0 || r.Wall <= 0 {
					t.Fatalf("suspicious measurements: %+v", r)
				}
			})
		}
	}
}

// TestShardsReachEndpoints: Config.Shards (experiments -shards) shards
// every LCI endpoint of an in-process run, on both frameworks, and the
// results still match the oracle.
func TestShardsReachEndpoints(t *testing.T) {
	g := testGraph()
	for _, run := range []struct {
		name string
		fn   func(*graph.Graph, Config) *Result
	}{{"abelian", RunAbelian}, {"gemini", RunGemini}} {
		cfg := testCfg("bfs", LCI)
		cfg.Shards = 2
		r := run.fn(g, cfg)
		if err := Verify(g, r); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		sharded := false
		for name := range r.Snapshot.Counters {
			sharded = sharded || strings.Contains(name, `shard="1"`)
		}
		if !sharded {
			t.Errorf("%s: no shard-1 counter in the run's telemetry", run.name)
		}
	}
}

// TestGeminiAllAppsBothStreams verifies the Gemini engine against the same
// oracles on its two backends.
func TestGeminiAllAppsBothStreams(t *testing.T) {
	g := testGraph()
	for _, app := range Apps() {
		for _, layer := range StreamKinds() {
			t.Run(app+"/"+layer, func(t *testing.T) {
				r := RunGemini(g, testCfg(app, layer))
				if err := Verify(g, r); err != nil {
					t.Fatalf("%s on %s: %v", app, layer, err)
				}
			})
		}
	}
}

// TestHostCountsAndPolicies sweeps host counts on one app per framework.
func TestHostCountsAndPolicies(t *testing.T) {
	g := testGraph()
	for _, p := range []int{1, 2, 4, 5} {
		cfg := testCfg("sssp", LCI)
		cfg.Hosts = p
		if err := Verify(g, RunAbelian(g, cfg)); err != nil {
			t.Fatalf("abelian sssp P=%d: %v", p, err)
		}
		if err := Verify(g, RunGemini(g, cfg)); err != nil {
			t.Fatalf("gemini sssp P=%d: %v", p, err)
		}
	}
}

// TestDirectedGraphBFS uses an asymmetric web-like graph (bfs/sssp only).
func TestDirectedGraphBFS(t *testing.T) {
	g := graph.Web(7, 8, 3, 16)
	for _, layer := range Layers() {
		cfg := testCfg("bfs", layer)
		cfg.Source = 0
		if err := Verify(g, RunAbelian(g, cfg)); err != nil {
			t.Fatalf("abelian bfs on %s: %v", layer, err)
		}
	}
	cfg := testCfg("bfs", LCI)
	cfg.Source = 0
	if err := Verify(g, RunGemini(g, cfg)); err != nil {
		t.Fatalf("gemini bfs: %v", err)
	}
}

// TestVerifyCatchesCorruption: the oracle checker must reject wrong
// results (guards the guard).
func TestVerifyCatchesCorruption(t *testing.T) {
	g := testGraph()
	r := RunAbelian(g, testCfg("bfs", LCI))
	if err := Verify(g, r); err != nil {
		t.Fatal(err)
	}
	r.Dist[3]++
	if err := Verify(g, r); err == nil {
		t.Fatal("Verify accepted corrupted distances")
	}
	pr := RunAbelian(g, testCfg("pagerank", LCI))
	pr.Ranks[1] += 0.5
	if err := Verify(g, pr); err == nil {
		t.Fatal("Verify accepted corrupted ranks")
	}
	bad := &Result{Config: Config{App: "nonsense"}}
	if err := Verify(g, bad); err == nil {
		t.Fatal("Verify accepted unknown app")
	}
}

// TestMemFootprintOrder: Fig. 5's shape must hold in the integrated runs.
func TestMemFootprintOrder(t *testing.T) {
	g := testGraph()
	rLCI := RunAbelian(g, testCfg("pagerank", LCI))
	rRMA := RunAbelian(g, testCfg("pagerank", MPIRMA))
	if rRMA.MemMax <= rLCI.MemMax {
		t.Errorf("RMA footprint %d should exceed LCI footprint %d", rRMA.MemMax, rLCI.MemMax)
	}
	t.Logf("lci=%d rma=%d (max bytes)", rLCI.MemMax, rRMA.MemMax)
}
