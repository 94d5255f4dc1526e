package abelian

import (
	"math"
	"sync"
	"testing"

	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/partition"
)

func minU64(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// runCluster builds a vertex-cut partition of g over p hosts with LCI
// layers and runs body per host on two compute threads.
func runCluster(g *graph.Graph, p int, body func(rt *Runtime)) {
	runClusterThreads(g, p, 2, body)
}

// runClusterThreads is runCluster with threads compute threads per host.
func runClusterThreads(g *graph.Graph, p, threads int, body func(rt *Runtime)) {
	pt := partition.Build(g, p, partition.VertexCut)
	fab := fabric.New(p, fabric.TestProfile())
	cluster.Run(p, threads, func(r int) comm.Layer {
		return comm.NewLCILayer(fab.Endpoint(r), lci.Options{})
	}, func(h *cluster.Host) {
		body(New(h, pt.Hosts[h.Rank], partition.VertexCut))
	})
}

func TestFieldApplySemantics(t *testing.T) {
	g := graph.Ring(8)
	runCluster(g, 2, func(rt *Runtime) {
		f := rt.NewField(100, minU64)
		if f.Get(0) != 100 {
			t.Errorf("identity not stored")
		}
		if !f.Apply(0, 5) {
			t.Errorf("apply smaller value reported unchanged")
		}
		if f.Apply(0, 7) {
			t.Errorf("apply larger value reported change")
		}
		if f.Get(0) != 5 {
			t.Errorf("value = %d", f.Get(0))
		}
		if f.UpdatedCount() == 0 {
			t.Errorf("apply did not mark updated")
		}
		f.ResetUpdated()
		if f.UpdatedCount() != 0 {
			t.Errorf("reset left updated bits")
		}
	})
}

// TestFieldWritePaths: a field is single-writer exactly when its rank has
// one compute thread. On either path, every compute thread hammering the
// same proxies with an add-reduction loses no update, reduce sums the
// mirrors into their masters, and broadcast overwrites every mirror.
func TestFieldWritePaths(t *testing.T) {
	g := graph.Complete(12)
	const p, reps = 3, 1024
	add := func(a, b uint64) uint64 { return a + b }
	for _, threads := range []int{1, 2, 4} {
		runClusterThreads(g, p, threads, func(rt *Runtime) {
			hg := rt.HG
			f := rt.NewField(0, add)
			if f.single != (threads == 1) {
				t.Errorf("threads=%d: single-writer = %v", threads, f.single)
			}
			rt.Host.Pool.For(reps*hg.NumLocal, func(i int) {
				f.Apply(uint32(i%hg.NumLocal), 1)
			})
			for lv := 0; lv < hg.NumLocal; lv++ {
				if v := f.Get(uint32(lv)); v != reps {
					t.Errorf("threads=%d host %d: proxy %d = %d after %d applies", threads, rt.Host.Rank, lv, v, reps)
				}
			}
			f.SyncReduce()
			var masterSum int64
			for lv := 0; lv < hg.NumLocal; lv++ {
				if hg.IsMaster(uint32(lv)) {
					masterSum += int64(f.Get(uint32(lv)))
				} else if v := f.Get(uint32(lv)); v != 0 {
					t.Errorf("threads=%d host %d: mirror %d not reset (%d)", threads, rt.Host.Rank, lv, v)
				}
			}
			proxies := rt.Host.AllreduceSum(int64(hg.NumLocal))
			if got := rt.Host.AllreduceSum(masterSum); got != reps*proxies {
				t.Errorf("threads=%d: masters hold %d, want %d", threads, got, reps*proxies)
			}

			for lv := 0; lv < hg.NumMasters; lv++ {
				f.Set(uint32(lv), uint64(hg.L2G[lv])+1000)
			}
			f.SyncBroadcast()
			for lv := 0; lv < hg.NumLocal; lv++ {
				if v, want := f.Get(uint32(lv)), uint64(hg.L2G[lv])+1000; v != want {
					t.Errorf("threads=%d host %d: proxy of %d = %d, want %d", threads, rt.Host.Rank, hg.L2G[lv], v, want)
				}
			}
		})
	}
}

// TestApplyEachMatchesApply: ApplyEach over every local vertex's neighbor
// list leaves the same values, bit for bit, and the same updated marks as
// one Apply per neighbor, on the single-writer path (1 thread) and the
// atomic one (2 threads). A float add is order-sensitive, so equal bits
// mean equal merge order; a min marks only the proxies it changed.
func TestApplyEachMatchesApply(t *testing.T) {
	g := graph.RMAT(8, 8, 3, 1)
	addF64 := func(a, b uint64) uint64 {
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	}
	for _, threads := range []int{1, 2} {
		runClusterThreads(g, 2, threads, func(rt *Runtime) {
			hg := rt.HG
			for _, red := range []struct {
				name     string
				identity uint64
				reduce   func(a, b uint64) uint64
				val      func(u int) uint64
			}{
				{"float add", 0, addF64, func(u int) uint64 { return math.Float64bits(1 / float64(u+3)) }},
				{"min", ^uint64(0), minU64, func(u int) uint64 { return uint64(u % 17) }},
			} {
				bulk := rt.NewField(red.identity, red.reduce)
				each := rt.NewField(red.identity, red.reduce)
				for u := 0; u < hg.NumLocal; u++ {
					bulk.ApplyEach(hg.Local.Neighbors(u), red.val(u))
					for _, v := range hg.Local.Neighbors(u) {
						each.Apply(v, red.val(u))
					}
				}
				for lv := 0; lv < hg.NumLocal; lv++ {
					if a, b := bulk.Get(uint32(lv)), each.Get(uint32(lv)); a != b {
						t.Errorf("threads=%d %s host %d: proxy %d = %#x by ApplyEach, %#x by Apply",
							threads, red.name, rt.Host.Rank, lv, a, b)
					}
				}
				if a, b := bulk.UpdatedCount(), each.UpdatedCount(); a != b || a == 0 {
					t.Errorf("threads=%d %s host %d: UpdatedCount %d by ApplyEach, %d by Apply",
						threads, red.name, rt.Host.Rank, a, b)
				}
			}
		})
	}
}

// TestSyncBroadcastClearsMastersOnly: the broadcast clears the updated
// marks of masters and leaves those of mirrors alone (a mirror's mark
// belongs to the next reduce).
func TestSyncBroadcastClearsMastersOnly(t *testing.T) {
	g := graph.Complete(12)
	for _, threads := range []int{1, 2} {
		runClusterThreads(g, 3, threads, func(rt *Runtime) {
			hg := rt.HG
			f := rt.NewField(^uint64(0), minU64)
			for lv := 0; lv < hg.NumLocal; lv++ {
				f.Apply(uint32(lv), uint64(lv))
			}
			if hg.NumLocal == hg.NumMasters {
				t.Fatalf("host %d holds no mirrors", rt.Host.Rank)
			}
			f.SyncBroadcast()
			for lv := 0; lv < hg.NumLocal; lv++ {
				if got, want := f.updated.Test(lv), !hg.IsMaster(uint32(lv)); got != want {
					t.Errorf("threads=%d host %d: proxy %d (master %v) updated = %v after broadcast",
						threads, rt.Host.Rank, lv, hg.IsMaster(uint32(lv)), got)
				}
			}
		})
	}
}

// TestSyncReducePropagatesMinToMaster: mirrors write, reduce carries the
// min to the master, and the mirror resets to identity.
func TestSyncReducePropagatesMinToMaster(t *testing.T) {
	g := graph.Complete(12) // every host sees every vertex
	const p = 3
	var mu sync.Mutex
	finalAtMaster := map[uint32]uint64{}

	runCluster(g, p, func(rt *Runtime) {
		f := rt.NewField(^uint64(0), minU64)
		// Every host writes rank+10 into its proxy of global vertex 0.
		if lv, ok := rt.HG.G2L(0); ok {
			f.Apply(lv, uint64(rt.Host.Rank)+10)
		}
		rt.Host.Barrier()
		f.SyncReduce()
		if lv, ok := rt.HG.G2L(0); ok && rt.HG.IsMaster(lv) {
			mu.Lock()
			finalAtMaster[0] = f.Get(lv)
			mu.Unlock()
		}
		// Mirrors that shipped their value must be reset to identity.
		if lv, ok := rt.HG.G2L(0); ok && !rt.HG.IsMaster(lv) {
			if f.Get(lv) != ^uint64(0) {
				t.Errorf("host %d: mirror not reset (%d)", rt.Host.Rank, f.Get(lv))
			}
		}
	})
	if finalAtMaster[0] != 10 {
		t.Fatalf("master value = %d, want 10 (min over hosts)", finalAtMaster[0])
	}
}

// TestSyncBroadcastOverwritesMirrors: master updates flow to all mirrors.
func TestSyncBroadcastOverwritesMirrors(t *testing.T) {
	g := graph.Complete(12)
	const p = 3
	runCluster(g, p, func(rt *Runtime) {
		f := rt.NewField(0, minU64)
		// Masters stamp their global id + 1000.
		for lv := 0; lv < rt.HG.NumMasters; lv++ {
			f.Set(uint32(lv), uint64(rt.HG.L2G[lv])+1000)
		}
		rt.Host.Barrier()
		f.SyncBroadcast()
		for lv := 0; lv < rt.HG.NumLocal; lv++ {
			want := uint64(rt.HG.L2G[lv]) + 1000
			if f.Get(uint32(lv)) != want {
				t.Errorf("host %d proxy of %d = %d, want %d",
					rt.Host.Rank, rt.HG.L2G[lv], f.Get(uint32(lv)), want)
			}
		}
		// Broadcast must clear master updated-bits.
		if n := f.UpdatedCount(); n != 0 {
			t.Errorf("updated bits remain after broadcast: %d", n)
		}
	})
}

// TestOnChangeActivation: sync-induced changes trigger the activation hook
// exactly for changed proxies.
func TestOnChangeActivation(t *testing.T) {
	g := graph.Complete(9)
	const p = 3
	runCluster(g, p, func(rt *Runtime) {
		f := rt.NewField(^uint64(0), minU64)
		var mu sync.Mutex
		changed := map[uint32]bool{}
		f.OnChange = func(lv uint32) {
			mu.Lock()
			changed[rt.HG.L2G[lv]] = true
			mu.Unlock()
		}
		// Only host 0 writes vertex 1's proxy.
		if rt.Host.Rank == 0 {
			if lv, ok := rt.HG.G2L(1); ok {
				f.Apply(lv, 7)
			}
		}
		rt.Host.Barrier()
		f.SyncReduce()
		f.SyncBroadcast()
		rt.Host.Barrier()
		mu.Lock()
		defer mu.Unlock()
		if lv, ok := rt.HG.G2L(1); ok {
			isWriter := rt.Host.Rank == 0
			isMaster := rt.HG.IsMaster(lv)
			// The writing host changed it locally (no OnChange for local
			// Apply by the app itself); remote proxies must have fired.
			if !isWriter && !changed[1] {
				t.Errorf("host %d (master=%v): OnChange missed vertex 1", rt.Host.Rank, isMaster)
			}
		}
		for gid := range changed {
			if gid != 1 {
				t.Errorf("host %d: spurious OnChange for %d", rt.Host.Rank, gid)
			}
		}
	})
}

// TestSparsePairFormat: with very few updates out of a large sync list the
// gather must pick the index-value-pair encoding and the scatter must
// decode it correctly.
func TestSparsePairFormat(t *testing.T) {
	g := graph.Complete(200) // large lists: every vertex mirrored everywhere
	const p = 2
	runCluster(g, p, func(rt *Runtime) {
		f := rt.NewField(^uint64(0), minU64)
		// Exactly one update per host, to a vertex owned by the peer.
		target := uint32(0)
		if lv, ok := rt.HG.G2L(target); ok && rt.HG.IsMaster(lv) {
			target = uint32(g.N - 1)
		}
		if lv, ok := rt.HG.G2L(target); ok && !rt.HG.IsMaster(lv) {
			f.Apply(lv, uint64(42+rt.Host.Rank))
		}
		rt.Host.Barrier()
		f.SyncReduce()
		rt.Host.Barrier()
		if lv, ok := rt.HG.G2L(target); ok && rt.HG.IsMaster(lv) {
			got := f.Get(lv)
			if got == ^uint64(0) {
				t.Errorf("host %d: sparse update for %d never arrived", rt.Host.Rank, target)
			}
		}
	})
}

// TestFieldTagAllocatorReserved: allocating fields past the reserved
// cluster.CollectiveTag must panic instead of silently colliding with the
// out-of-process collective traffic.
func TestFieldTagAllocatorReserved(t *testing.T) {
	g := graph.Ring(8)
	runCluster(g, 1, func(rt *Runtime) {
		defer func() {
			if recover() == nil {
				t.Errorf("allocating field tags past CollectiveTag did not panic")
			}
		}()
		for i := 0; i <= int(cluster.CollectiveTag); i++ {
			rt.NewField(0, minU64)
		}
		t.Errorf("no panic after %d fields", int(cluster.CollectiveTag)+1)
	})
}

// TestFieldTagAllocatorServeReserved: the reserved control-tag range
// [cluster.IncidentTag, cluster.CollectiveTag) — incident evidence, health
// heartbeats, plus the serving control tags — is guarded exactly like the
// collective tag: the allocator must hand out every tag below IncidentTag
// and panic on the first field that would touch the range.
func TestFieldTagAllocatorServeReserved(t *testing.T) {
	g := graph.Ring(8)
	runCluster(g, 1, func(rt *Runtime) {
		// Fields consume tag pairs (2k, 2k+1); every pair strictly below
		// IncidentTag must allocate without panicking.
		okFields := int(cluster.IncidentTag) / 2
		for i := 0; i < okFields; i++ {
			rt.NewField(0, minU64)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("allocating a field tag inside [IncidentTag, CollectiveTag] did not panic")
			}
		}()
		rt.NewField(0, minU64)
		t.Errorf("no panic at the IncidentTag boundary (field %d)", okFields)
	})
}

// TestReservedTagOrdering pins the layout of the reserved tag range: the
// incident tag must sit strictly below every other reserved tag so the
// allocator guard (which checks only the bottom of the range) covers all of
// them, and the range must stay contiguous.
func TestReservedTagOrdering(t *testing.T) {
	if !(cluster.IncidentTag < cluster.HealthTag &&
		cluster.HealthTag < cluster.ServeTagLo &&
		cluster.ServeTagLo < cluster.CollectiveTag) {
		t.Fatalf("reserved tag ordering violated: incident=%d health=%d serveLo=%d collective=%d",
			cluster.IncidentTag, cluster.HealthTag, cluster.ServeTagLo, cluster.CollectiveTag)
	}
	if cluster.IncidentTag+1 != cluster.HealthTag {
		t.Fatalf("gap between IncidentTag (%d) and HealthTag (%d): the reserved range must be contiguous",
			cluster.IncidentTag, cluster.HealthTag)
	}
}

// TestUpdatedOnlyTraffic: an idle round ships (nearly) nothing.
func TestUpdatedOnlyTraffic(t *testing.T) {
	g := graph.Complete(16)
	const p = 4
	runCluster(g, p, func(rt *Runtime) {
		f := rt.NewField(^uint64(0), minU64)
		// Round 1: everything updated.
		for lv := 0; lv < rt.HG.NumLocal; lv++ {
			f.Apply(uint32(lv), uint64(lv))
		}
		rt.Host.Barrier()
		f.Sync()
		sent1 := rt.Host.Layer.Tracker().Max()
		// Round 2: nothing updated (mirrors were reset, masters cleared).
		f.ResetUpdated()
		rt.Host.Barrier()
		before := rt.Host.Layer.Tracker().Max()
		f.Sync()
		after := rt.Host.Layer.Tracker().Max()
		if after > before && after-before > sent1/2 {
			t.Errorf("idle sync shipped heavy traffic: %d -> %d", before, after)
		}
	})
}
