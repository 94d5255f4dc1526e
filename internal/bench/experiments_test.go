package bench

import (
	"strings"
	"testing"
)

// smokeExp is a minimal config so every experiment driver runs in
// milliseconds.
func smokeExp() ExpConfig {
	return ExpConfig{Scale: 7, Hosts: []int{2}, Threads: 2, Repeats: 1, PRIters: 2, Seed: 3}
}

// TestExperimentDriversSmoke executes every table/figure generator once at
// tiny scale and sanity-checks the rendered output.
func TestExperimentDriversSmoke(t *testing.T) {
	e := smokeExp()
	checks := []struct {
		name string
		out  string
		want []string
	}{
		{"Table1", Table1(e), []string{"web", "kron", "rmat", "|V|"}},
		{"Table3", Table3(), []string{"omnipath", "infiniband"}},
		{"Fig3", Fig3(e), []string{"pagerank", "lci", "mpi-probe", "mpi-rma", "geomean"}},
		{"Fig4", Fig4(e), []string{"sssp", "lci", "mpi-probe", "geomean"}},
		{"Fig5", Fig5(e), []string{"max(bytes)", "lci", "mpi-rma"}},
		{"Fig6", Fig6(e), []string{"compute", "comm", "total"}},
		{"Table2", Table2(e), []string{"omnipath", "infiniband"}},
		{"Table4", Table4(e), []string{"intelmpi", "mvapich2", "openmpi"}},
		{"Portability", Portability(e), []string{"sockets"}},
		{"AblationOrdering", AblationOrdering(e), []string{"ordered", "unordered"}},
		{"AblationAggregation", AblationAggregation(e), []string{"aggregated", "naive"}},
		{"AblationAdaptive", AblationAdaptive(e), []string{"sparse only", "adaptive"}},
		{"AblationDirectionBFS", AblationDirectionBFS(e), []string{"bfs", "bfs-dir"}},
		{"ThreadScaling", ThreadScaling(e, []int{1, 2}), []string{"T=1", "T=2"}},
	}
	for _, c := range checks {
		if len(c.out) == 0 {
			t.Fatalf("%s: empty output", c.name)
		}
		for _, w := range c.want {
			if !strings.Contains(c.out, w) {
				t.Fatalf("%s: output missing %q:\n%s", c.name, w, c.out)
			}
		}
	}
}

// TestFig1TableSmoke runs the microbenchmark driver with few iterations.
func TestFig1TableSmoke(t *testing.T) {
	out := Fig1Table(40)
	for _, w := range []string{"no-probe", "probe", "queue", "latency", "ratio"} {
		if !strings.Contains(out, w) {
			t.Fatalf("Fig1 output missing %q:\n%s", w, out)
		}
	}
}

// TestAllToAllSmoke checks the all-to-all driver, including host counts
// that do not divide the send cycle evenly (a past deadlock: uneven peer
// coverage left one host expecting a message that was never sent).
func TestAllToAllSmoke(t *testing.T) {
	out := AllToAllTable([]int{2, 3, 4}, 50)
	if !strings.Contains(out, "queue") || !strings.Contains(out, "P=3") {
		t.Fatalf("all-to-all output: %s", out)
	}
}
