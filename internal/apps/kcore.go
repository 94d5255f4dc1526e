package apps

import (
	"sync/atomic"
	"time"

	"lcigraph/internal/abelian"
	"lcigraph/internal/bitset"
)

// KCore computes the k-core of a symmetric graph on the Abelian runtime:
// vertices with fewer than k live neighbors are removed iteratively until a
// fixed point. It exercises a communication pattern the other apps do not —
// a broadcast of "deaths" followed by an additive reduction of per-neighbor
// decrements each round (the Gluon benchmark suite's k-core shape).
//
// It returns a field whose masters hold 1 for vertices in the k-core and 0
// otherwise, plus the number of BSP rounds.
func KCore(rt *abelian.Runtime, k uint64) (*abelian.Field, int) {
	hg := rt.HG

	// Global degrees via add-reduction (vertex-cuts split adjacency).
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

	// alive: 1 while in the candidate core; min-reduce propagates deaths
	// (0 wins). decs accumulates live-neighbor losses per round.
	alive := rt.NewField(1, minU64)
	decs := rt.NewField(0, func(a, b uint64) uint64 { return a + b })

	// lost[lv] = total decrements applied to master lv so far.
	lost := make([]uint64, hg.NumLocal)

	// newlyDead tracks proxies whose alive value dropped this round
	// (locally or via sync) so their out-edges are decremented exactly
	// once.
	newlyDead := bitset.New(hg.NumLocal)
	alive.OnChange = func(lv uint32) { newlyDead.Set(int(lv)) }
	defer func() { alive.OnChange = nil }()

	rounds := 0
	for {
		rounds++
		// Kill phase: masters below the threshold die.
		var died atomic.Int64
		rt.Compute(func() {
			rt.Host.Pool.For(hg.NumMasters, func(m int) {
				if alive.Get(uint32(m)) != 1 {
					return
				}
				if deg.Get(uint32(m))-lost[m] < k {
					alive.Set(uint32(m), 0)
					newlyDead.Set(m)
					died.Add(1)
				}
			})
		})

		// Propagate deaths to every proxy; OnChange marks remote mirrors.
		alive.SyncBroadcast()

		// Decrement phase: each newly-dead proxy charges its local
		// out-neighbors one lost neighbor (symmetric input ⇒ undirected
		// degree).
		rt.Compute(func() {
			rt.Host.Pool.ForRange(hg.NumLocal, func(lo, hi int) {
				newlyDead.ForEachRange(lo, hi, func(u int) {
					newlyDead.Clear(u)
					decs.ApplyEach(hg.Local.Neighbors(u), 1)
				})
			})
		})
		decs.SyncReduce()

		// Fold this round's decrements into the running totals.
		rt.Compute(func() {
			rt.Host.Pool.For(hg.NumMasters, func(m int) {
				if d := decs.Get(uint32(m)); d != 0 {
					lost[m] += d
					decs.SetLocal(uint32(m), 0)
				}
			})
		})
		decs.ResetUpdated()

		rt.Rounds++
		rt.RecordRound()
		t0 := time.Now()
		global := rt.Host.AllreduceSum(died.Load())
		rt.CommTime += time.Since(t0)
		if global == 0 {
			return alive, rounds
		}
	}
}

// OracleKCore returns, per vertex, 1 if the vertex survives in the k-core
// of the (symmetric) graph and 0 otherwise.
func OracleKCore(g interface {
	Degree(v int) int
	Neighbors(v int) []uint32
}, n int, k uint64) []uint64 {
	alive := make([]uint64, n)
	degLeft := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = 1
		degLeft[v] = g.Degree(v)
	}
	queue := []int{}
	for v := 0; v < n; v++ {
		if uint64(degLeft[v]) < k {
			alive[v] = 0
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if alive[v] == 0 {
				continue
			}
			degLeft[v]--
			if uint64(degLeft[v]) < k {
				alive[v] = 0
				queue = append(queue, int(v))
			}
		}
	}
	return alive
}
