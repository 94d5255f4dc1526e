package partition

import (
	"testing"
	"testing/quick"

	"lcigraph/internal/graph"
)

func policies() []Policy { return []Policy{EdgeCut, VertexCut} }

// checkInvariants validates the core partitioning invariants for any graph
// and host count:
//  1. every global edge is assigned to exactly one host,
//  2. every vertex has exactly one master (on its owner),
//  3. masters precede mirrors in the local id space,
//  4. the per-pair sync lists are global-id aligned.
func checkInvariants(t *testing.T, g *graph.Graph, p int, pol Policy) {
	t.Helper()
	pt := Build(g, p, pol)

	// (1) edge conservation.
	type ge struct{ s, d uint32 }
	global := map[ge]int{}
	for v := 0; v < g.N; v++ {
		for _, d := range g.Neighbors(v) {
			global[ge{uint32(v), d}]++
		}
	}
	seen := map[ge]int{}
	for _, hg := range pt.Hosts {
		for lv := 0; lv < hg.NumLocal; lv++ {
			for _, ld := range hg.Local.Neighbors(lv) {
				seen[ge{hg.L2G[lv], hg.L2G[ld]}]++
			}
		}
	}
	if len(seen) != len(global) {
		t.Fatalf("%v/P=%d: %d distinct edges partitioned, want %d", pol, p, len(seen), len(global))
	}
	for e, c := range global {
		if seen[e] != c {
			t.Fatalf("%v/P=%d: edge %v count %d, want %d", pol, p, e, seen[e], c)
		}
	}

	// (2) unique master on the owner; (3) layout.
	masterCount := make([]int, g.N)
	for _, hg := range pt.Hosts {
		for l, gid := range hg.L2G {
			isM := l < hg.NumMasters
			if isM {
				masterCount[gid]++
				if pt.Owner(gid) != hg.Host {
					t.Fatalf("%v: master of %d on non-owner %d", pol, gid, hg.Host)
				}
				if hg.OwnerOf[l] != hg.Host {
					t.Fatalf("%v: OwnerOf wrong for master", pol)
				}
			} else if pt.Owner(gid) == hg.Host {
				t.Fatalf("%v: owned vertex %d stored as mirror", pol, gid)
			}
			if l2, ok := hg.G2L(gid); !ok || int(l2) != l {
				t.Fatalf("%v: G2L(L2G) not identity", pol)
			}
		}
		// G2L knows exactly the local proxies, and ids beyond the graph
		// (a remote peer's input) are no proxy rather than a panic.
		proxies := 0
		for gid := uint32(0); int(gid) < g.N; gid++ {
			if _, ok := hg.G2L(gid); ok {
				proxies++
			}
		}
		if proxies != hg.NumLocal {
			t.Fatalf("%v: G2L finds %d proxies, host has %d", pol, proxies, hg.NumLocal)
		}
		for _, gid := range []uint32{uint32(g.N), uint32(g.N) + 1, ^uint32(0)} {
			if _, ok := hg.G2L(gid); ok {
				t.Fatalf("%v: G2L(%d) found a proxy beyond the graph", pol, gid)
			}
		}
	}
	for v, c := range masterCount {
		if c != 1 {
			t.Fatalf("%v/P=%d: vertex %d has %d masters", pol, p, v, c)
		}
	}

	// (4) sync-list alignment: host h's MirrorsHere[m] corresponds
	// global-id-wise to host m's MastersFor[h], ascending.
	for h, hg := range pt.Hosts {
		for m := 0; m < p; m++ {
			mine := hg.MirrorsHere[m]
			theirs := pt.Hosts[m].MastersFor[h]
			if len(mine) != len(theirs) {
				t.Fatalf("%v: list sizes differ for pair (%d,%d): %d vs %d",
					pol, h, m, len(mine), len(theirs))
			}
			prev := -1
			for i := range mine {
				gm := hg.L2G[mine[i]]
				gt := pt.Hosts[m].L2G[theirs[i]]
				if gm != gt {
					t.Fatalf("%v: pair (%d,%d) misaligned at %d: %d vs %d",
						pol, h, m, i, gm, gt)
				}
				if int(gm) <= prev {
					t.Fatalf("%v: list not ascending", pol)
				}
				prev = int(gm)
				if hg.IsMaster(mine[i]) {
					t.Fatalf("%v: MirrorsHere contains a master", pol)
				}
				if !pt.Hosts[m].IsMaster(theirs[i]) {
					t.Fatalf("%v: MastersFor contains a mirror", pol)
				}
			}
		}
		// No self lists.
		if len(hg.MirrorsHere[h]) != 0 || len(hg.MastersFor[h]) != 0 {
			t.Fatalf("%v: host %d has self sync lists", pol, h)
		}
	}
}

func TestInvariantsSmallGraphs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":     graph.Path(17),
		"ring":     graph.Ring(16),
		"complete": graph.Complete(9),
		"rmat":     graph.RMAT(7, 8, 3, 8),
		"web":      graph.Web(7, 6, 9, 0),
		"empty":    graph.FromEdges(8, nil),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 3, 4, 6} {
			for _, pol := range policies() {
				t.Run(name, func(t *testing.T) { checkInvariants(t, g, p, pol) })
			}
		}
	}
}

func TestEdgeCutKeepsSourcesLocal(t *testing.T) {
	g := graph.RMAT(8, 8, 1, 0)
	pt := Build(g, 4, EdgeCut)
	for _, hg := range pt.Hosts {
		for lv := 0; lv < hg.NumLocal; lv++ {
			if hg.Local.Degree(lv) > 0 && !hg.IsMaster(uint32(lv)) {
				t.Fatalf("edge-cut: mirror %d has out-edges on host %d", lv, hg.Host)
			}
		}
	}
	if EdgeCut.NeedsBroadcast() {
		t.Fatal("edge-cut must not need broadcast for push operators")
	}
	if !VertexCut.NeedsBroadcast() {
		t.Fatal("vertex-cut must need broadcast for push operators")
	}
}

func TestEdgeBalance(t *testing.T) {
	g := graph.Kron(10, 8, 2, 0)
	for _, pol := range policies() {
		pt := Build(g, 4, pol)
		var min, max int64 = 1 << 62, 0
		for _, hg := range pt.Hosts {
			e := hg.Local.NumEdges()
			if e < min {
				min = e
			}
			if e > max {
				max = e
			}
		}
		// Power-law graphs cannot balance perfectly; allow generous slack.
		if max > 8*(min+1) {
			t.Errorf("%v: edge imbalance min=%d max=%d", pol, min, max)
		}
	}
}

func TestVertexCutReducesMaxReplication(t *testing.T) {
	// On a complete-ish skewed graph the edge-cut makes every vertex a
	// mirror nearly everywhere; the 2D cut bounds replication by r+c-1.
	g := graph.Complete(32)
	ec := Build(g, 4, EdgeCut)
	vc := Build(g, 4, VertexCut)
	repl := func(pt *Partitioned) int {
		total := 0
		for _, hg := range pt.Hosts {
			total += hg.NumLocal
		}
		return total
	}
	if repl(vc) > repl(ec) {
		t.Errorf("vertex cut replicated more proxies (%d) than edge cut (%d) on dense graph",
			repl(vc), repl(ec))
	}
}

func TestSingleHostDegenerate(t *testing.T) {
	g := graph.RMAT(6, 8, 1, 4)
	for _, pol := range policies() {
		pt := Build(g, 1, pol)
		hg := pt.Hosts[0]
		if hg.NumMasters != g.N || hg.NumLocal != g.N {
			t.Fatalf("%v: single host should own everything", pol)
		}
		if hg.Local.NumEdges() != g.NumEdges() {
			t.Fatalf("%v: lost edges", pol)
		}
	}
}

func TestGridFactorization(t *testing.T) {
	for _, tc := range []struct{ p, r, c int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4}, {9, 3, 3}, {12, 3, 4}, {7, 1, 7},
	} {
		r, c := grid(tc.p)
		if r != tc.r || c != tc.c {
			t.Errorf("grid(%d) = %d×%d, want %d×%d", tc.p, r, c, tc.r, tc.c)
		}
	}
}

func TestMetrics(t *testing.T) {
	g := graph.Complete(16)
	for _, pol := range policies() {
		pt := Build(g, 4, pol)
		m := pt.MeasureMetrics()
		if m.P != 4 || m.Policy != pol {
			t.Fatalf("identity fields wrong: %+v", m)
		}
		if m.Replication < 1.0 {
			t.Fatalf("replication %f < 1", m.Replication)
		}
		if m.EdgeMin > m.EdgeMax {
			t.Fatalf("edge bounds inverted: %+v", m)
		}
		var total int64
		for _, hg := range pt.Hosts {
			total += int64(hg.NumLocal - hg.NumMasters)
		}
		if m.SyncPairs != total {
			t.Fatalf("sync pairs %d, want %d", m.SyncPairs, total)
		}
	}
	// Cartesian vertex cut bounds per-vertex replication by r+c-1.
	vc := Build(g, 4, VertexCut).MeasureMetrics()
	if vc.MaxMirrors > 3 { // 2x2 grid: r+c-1 = 3
		t.Fatalf("vertex-cut max mirrors %d exceeds r+c-1", vc.MaxMirrors)
	}
	// Single host: no mirrors at all.
	solo := Build(g, 1, EdgeCut).MeasureMetrics()
	if solo.Replication != 1.0 || solo.SyncPairs != 0 || solo.MaxMirrors != 0 {
		t.Fatalf("single-host metrics: %+v", solo)
	}
}

// TestQuickRandomGraphs runs the invariant suite over random graphs.
func TestQuickRandomGraphs(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw)%6 + 1
		g := graph.RMAT(6, 4, seed, 4)
		for _, pol := range policies() {
			pt := Build(g, p, pol)
			// Cheap subset of invariants for speed: edge conservation.
			var total int64
			for _, hg := range pt.Hosts {
				total += hg.Local.NumEdges()
			}
			if total != g.NumEdges() {
				return false
			}
			masters := 0
			for _, hg := range pt.Hosts {
				masters += hg.NumMasters
			}
			if masters != g.N {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildVertexCut(b *testing.B) {
	g := graph.RMAT(12, 8, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, 8, VertexCut)
	}
}
