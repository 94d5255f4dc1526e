// Package apps implements the paper's four benchmark applications — bfs,
// cc, sssp and pagerank (§IV) — on both the Abelian and Gemini runtimes,
// plus single-host reference oracles used by the test suite to verify that
// every communication layer computes identical results.
package apps

import (
	"math"
	"time"

	"lcigraph/internal/abelian"
	"lcigraph/internal/bitset"
)

// Inf is the "unreached" distance value.
const Inf = math.MaxUint64

// minU64 is the min-reduction.
func minU64(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

// addF64 reduces float64 values stored as bits by addition.
func addF64(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

// runPush drives a data-driven push-style vertex program to quiescence:
// active vertices relax their out-edges into f (via the field's reduction),
// synchronization propagates changes, and any changed proxy becomes active
// for the next round. It returns the number of BSP rounds executed.
func runPush(rt *abelian.Runtime, f *abelian.Field,
	seed func(activate func(lv uint32)),
	relax func(srcVal uint64, w uint32) uint64) int {

	hg := rt.HG
	cur := bitset.New(hg.NumLocal)
	next := bitset.New(hg.NumLocal)
	f.OnChange = func(lv uint32) { next.Set(int(lv)) }
	defer func() { f.OnChange = nil }()

	seed(func(lv uint32) { cur.Set(int(lv)) })

	rounds := 0
	for {
		rounds++
		rt.Compute(func() {
			rt.Host.Pool.ForRange(hg.NumLocal, func(lo, hi int) {
				cur.ForEachRange(lo, hi, func(u int) {
					uVal := f.Get(uint32(u))
					ws := hg.Local.NeighborWeights(u)
					for i, v := range hg.Local.Neighbors(u) {
						var w uint32
						if ws != nil {
							w = ws[i]
						}
						cand := relax(uVal, w)
						if f.Apply(v, cand) {
							next.Set(int(v))
						}
					}
				})
			})
		})
		// Sync propagates remote updates; OnChange activates receivers.
		f.Sync()
		rt.Rounds++
		rt.RecordRound()
		local := int64(next.Count())
		t0 := time.Now()
		global := rt.Host.AllreduceSum(local)
		rt.CommTime += time.Since(t0)
		if global == 0 {
			return rounds
		}
		cur, next = next, cur
		next.Reset()
	}
}

// seedVertex activates global vertex gid's proxy (if present) with value v.
func seedVertex(rt *abelian.Runtime, f *abelian.Field, gid uint32, v uint64,
	activate func(lv uint32)) {
	if lv, ok := rt.HG.G2L(gid); ok {
		f.SetLocal(lv, v)
		activate(lv)
	}
}

// BFS computes hop distances from source. It returns the field holding
// per-proxy distances and the number of rounds.
func BFS(rt *abelian.Runtime, source uint32) (*abelian.Field, int) {
	dist := rt.NewField(Inf, minU64)
	rounds := runPush(rt, dist,
		func(activate func(lv uint32)) { seedVertex(rt, dist, source, 0, activate) },
		func(v uint64, _ uint32) uint64 {
			if v == Inf {
				return Inf
			}
			return v + 1
		})
	return dist, rounds
}

// SSSP computes weighted shortest-path distances from source.
func SSSP(rt *abelian.Runtime, source uint32) (*abelian.Field, int) {
	dist := rt.NewField(Inf, minU64)
	rounds := runPush(rt, dist,
		func(activate func(lv uint32)) { seedVertex(rt, dist, source, 0, activate) },
		func(v uint64, w uint32) uint64 {
			if v == Inf {
				return Inf
			}
			return v + uint64(w)
		})
	return dist, rounds
}

// CC computes connected components by label propagation (minimum global id
// wins). The input graph must be symmetric for the labels to mean
// undirected components (the kron input is; see internal/graph).
func CC(rt *abelian.Runtime) (*abelian.Field, int) {
	comp := rt.NewField(Inf, minU64)
	hg := rt.HG
	rounds := runPush(rt, comp,
		func(activate func(lv uint32)) {
			for lv := 0; lv < hg.NumLocal; lv++ {
				comp.SetLocal(uint32(lv), uint64(hg.L2G[lv]))
				activate(uint32(lv))
			}
		},
		func(v uint64, _ uint32) uint64 { return v })
	return comp, rounds
}

// PageRankDamping is the paper-standard damping factor.
const PageRankDamping = 0.85

// PageRank runs the push-style accumulation formulation for iters rounds
// and returns the rank field (valid at masters; broadcast keeps mirrors
// fresh under vertex-cuts). Degrees are globalized with an add-reduction
// first, since a vertex-cut splits a vertex's out-edges across hosts.
func PageRank(rt *abelian.Runtime, iters int) *abelian.Field {
	hg := rt.HG
	n := float64(hg.GlobalN)

	// Global out-degrees.
	deg := rt.NewField(0, func(a, b uint64) uint64 { return a + b })
	rt.Compute(func() {
		rt.Host.Pool.For(hg.NumLocal, func(lv int) {
			if d := hg.Local.Degree(lv); d > 0 {
				deg.Apply(uint32(lv), uint64(d))
			}
		})
	})
	deg.SyncReduce()
	deg.SyncBroadcast()

	rank := rt.NewField(0, func(a, b uint64) uint64 { return b }) // overwrite
	acc := rt.NewField(0, addF64)

	init := math.Float64bits(1.0 / n)
	for lv := 0; lv < hg.NumLocal; lv++ {
		rank.SetLocal(uint32(lv), init)
	}

	for it := 0; it < iters; it++ {
		rt.Compute(func() {
			rt.Host.Pool.For(hg.NumLocal, func(u int) {
				du := deg.Get(uint32(u))
				if du == 0 || hg.Local.Degree(u) == 0 {
					return
				}
				contrib := math.Float64frombits(rank.Get(uint32(u))) / float64(du)
				acc.ApplyEach(hg.Local.Neighbors(u), math.Float64bits(contrib))
			})
		})
		acc.SyncReduce()
		// New ranks at masters; accumulators reset for the next round.
		rt.Compute(func() {
			rt.Host.Pool.For(hg.NumLocal, func(lv int) {
				if hg.IsMaster(uint32(lv)) {
					sum := math.Float64frombits(acc.Get(uint32(lv)))
					r := (1-PageRankDamping)/n + PageRankDamping*sum
					rank.Set(uint32(lv), math.Float64bits(r))
				}
				acc.SetLocal(uint32(lv), 0)
			})
		})
		if rt.Pol.NeedsBroadcast() {
			rank.SyncBroadcast()
		}
		rt.Rounds++
		rt.RecordRound()
	}
	return rank
}
