package bench

import (
	"testing"
	"time"

	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
)

// TestNoOrderingStillCorrect: the unordered MPI ablation stays correct for
// this BSP workload (epoch tags already separate rounds; ordering is a
// semantic guarantee the pattern doesn't need — the paper's point).
func TestNoOrderingStillCorrect(t *testing.T) {
	g := testGraph()
	impl := mpi.TestImpl()
	impl.UnsafeNoOrdering = true
	cfg := testCfg("sssp", MPIProbe)
	cfg.Impl = impl
	if err := Verify(g, RunAbelian(g, cfg)); err != nil {
		t.Fatalf("unordered sssp: %v", err)
	}
}

// TestNoAggregationStillCorrect: disabling the buffered layer must not
// change results (only performance).
func TestNoAggregationStillCorrect(t *testing.T) {
	g := testGraph()
	cfg := testCfg("bfs", MPIProbe)
	cfg.NoAggregation = true
	if err := Verify(g, RunAbelian(g, cfg)); err != nil {
		t.Fatalf("no-aggregation bfs: %v", err)
	}
}

// TestKCoreCorrect: the k-core extension matches the iterative-removal
// oracle on every layer (symmetric input).
func TestKCoreCorrect(t *testing.T) {
	g := testGraph()
	for _, layer := range Layers() {
		cfg := testCfg("kcore", layer)
		if err := Verify(g, RunAbelian(g, cfg)); err != nil {
			t.Fatalf("kcore on %s: %v", layer, err)
		}
	}
}

// TestDirectionOptimizingBFS: the push/pull BFS matches the oracle on
// every layer, and actually pulls on a dense-frontier graph.
func TestDirectionOptimizingBFS(t *testing.T) {
	g := testGraph() // kron: tiny diameter, dense frontiers
	for _, layer := range Layers() {
		cfg := testCfg("bfs-dir", layer)
		if err := Verify(g, RunAbelian(g, cfg)); err != nil {
			t.Fatalf("bfs-dir on %s: %v", layer, err)
		}
	}
}

// TestJitterInjection: with heavy injected network jitter every layer and
// app still produces oracle results (robustness under noisy fabrics).
func TestJitterInjection(t *testing.T) {
	g := testGraph()
	prof := fabric.TestProfile()
	prof.Jitter = 30 * time.Microsecond
	for _, layer := range Layers() {
		cfg := testCfg("sssp", layer)
		cfg.Profile = prof
		if err := Verify(g, RunAbelian(g, cfg)); err != nil {
			t.Fatalf("jitter %s: %v", layer, err)
		}
	}
	cfg := testCfg("pagerank", LCI)
	cfg.Profile = prof
	if err := Verify(g, RunGemini(g, cfg)); err != nil {
		t.Fatalf("jitter gemini: %v", err)
	}
}

// TestSocketsProfileCorrect: the RDMA-less transport (libfabric sockets
// class) runs the whole matrix through its fallback paths — MPI software
// rendezvous and emulated RMA puts — with oracle results (§VI portability).
// Gemini's stream messages here all fit the 4 KiB eager limit; the stream
// FRG path under Gemini traffic is covered by internal/apps'
// lci-sim-sockets-1k cells.
func TestSocketsProfileCorrect(t *testing.T) {
	g := testGraph()
	for _, app := range Apps() {
		for _, layer := range Layers() {
			cfg := testCfg(app, layer)
			cfg.Profile = fabric.Sockets()
			if err := Verify(g, RunAbelian(g, cfg)); err != nil {
				t.Fatalf("sockets %s/%s: %v", app, layer, err)
			}
		}
	}
	for _, layer := range StreamKinds() {
		cfg := testCfg("sssp", layer)
		cfg.Profile = fabric.Sockets()
		if err := Verify(g, RunGemini(g, cfg)); err != nil {
			t.Fatalf("sockets gemini sssp/%s: %v", layer, err)
		}
	}
}

// TestInfiniBandProfileCorrect: the Table II portability runs compute the
// same results on the second NIC profile.
func TestInfiniBandProfileCorrect(t *testing.T) {
	g := testGraph()
	for _, layer := range Layers() {
		cfg := testCfg("cc", layer)
		cfg.Profile = fabric.InfiniBand()
		if err := Verify(g, RunAbelian(g, cfg)); err != nil {
			t.Fatalf("infiniband %s: %v", layer, err)
		}
	}
}

// TestImplProfilesCorrect: every Table IV MPI implementation profile
// computes oracle results on both MPI layers.
func TestImplProfilesCorrect(t *testing.T) {
	g := testGraph()
	for _, impl := range mpi.Impls() {
		for _, layer := range []string{MPIProbe, MPIRMA} {
			cfg := testCfg("bfs", layer)
			cfg.Impl = impl
			if err := Verify(g, RunAbelian(g, cfg)); err != nil {
				t.Fatalf("%s/%s: %v", impl.Name, layer, err)
			}
		}
	}
}

// TestAdaptiveGeminiCorrect: Gemini's sparse/dense adaptive engine matches
// the oracles on both stream backends.
func TestAdaptiveGeminiCorrect(t *testing.T) {
	g := testGraph()
	for _, app := range []string{"bfs", "cc", "sssp"} {
		for _, layer := range StreamKinds() {
			cfg := testCfg(app, layer)
			cfg.Adaptive = true
			if err := Verify(g, RunGemini(g, cfg)); err != nil {
				t.Fatalf("adaptive %s on %s: %v", app, layer, err)
			}
		}
	}
}

// TestDeltaSteppingCorrect: the delta-stepping extension matches Dijkstra
// on every layer, across bucket widths.
func TestDeltaSteppingCorrect(t *testing.T) {
	g := testGraph()
	for _, layer := range Layers() {
		cfg := testCfg("sssp-delta", layer)
		if err := Verify(g, RunAbelian(g, cfg)); err != nil {
			t.Fatalf("sssp-delta on %s: %v", layer, err)
		}
	}
}

func TestPoolLocalityAblationRuns(t *testing.T) {
	out := AblationPoolLocality(2, 200)
	if len(out) == 0 {
		t.Fatal("empty ablation output")
	}
}
