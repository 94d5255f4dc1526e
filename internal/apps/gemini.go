package apps

import (
	"math"
	"time"

	"lcigraph/internal/gemini"
)

// The Gemini versions of the four benchmarks (§IV-B1). The engine expects a
// partition built with partition.EdgeCutByDst.

// GeminiBFS computes hop distances from source on engine e (which must be
// built with identity Inf and min-reduction).
func GeminiBFS(e *gemini.Engine, source uint32) int {
	return e.RunPush(
		func(activate func(lv uint32)) {
			if lv, ok := e.HG.G2L(source); ok && e.HG.IsMaster(lv) {
				e.Set(lv, 0)
				activate(lv)
			}
		},
		func(v uint64, _ uint32) uint64 {
			if v == Inf {
				return Inf
			}
			return v + 1
		})
}

// GeminiSSSP computes weighted shortest-path distances from source.
func GeminiSSSP(e *gemini.Engine, source uint32) int {
	return e.RunPush(
		func(activate func(lv uint32)) {
			if lv, ok := e.HG.G2L(source); ok && e.HG.IsMaster(lv) {
				e.Set(lv, 0)
				activate(lv)
			}
		},
		func(v uint64, w uint32) uint64 {
			if v == Inf {
				return Inf
			}
			return v + uint64(w)
		})
}

// GeminiCC runs min-label propagation; the input must be symmetric for the
// result to mean undirected components.
func GeminiCC(e *gemini.Engine) int {
	hg := e.HG
	return e.RunPush(
		func(activate func(lv uint32)) {
			for lv := 0; lv < hg.NumLocal; lv++ {
				e.Set(uint32(lv), uint64(hg.L2G[lv]))
				if hg.IsMaster(uint32(lv)) {
					activate(uint32(lv))
				}
			}
		},
		func(v uint64, _ uint32) uint64 { return v })
}

// GeminiBFSAdaptive is GeminiBFS with sparse/dense mode switching.
func GeminiBFSAdaptive(e *gemini.Engine, source uint32) (rounds, dense int) {
	return e.RunPushAdaptive(
		func(activate func(lv uint32)) {
			if lv, ok := e.HG.G2L(source); ok && e.HG.IsMaster(lv) {
				e.Set(lv, 0)
				activate(lv)
			}
		},
		func(v uint64, _ uint32) uint64 {
			if v == Inf {
				return Inf
			}
			return v + 1
		})
}

// GeminiSSSPAdaptive is GeminiSSSP with sparse/dense mode switching.
func GeminiSSSPAdaptive(e *gemini.Engine, source uint32) (rounds, dense int) {
	return e.RunPushAdaptive(
		func(activate func(lv uint32)) {
			if lv, ok := e.HG.G2L(source); ok && e.HG.IsMaster(lv) {
				e.Set(lv, 0)
				activate(lv)
			}
		},
		func(v uint64, w uint32) uint64 {
			if v == Inf {
				return Inf
			}
			return v + uint64(w)
		})
}

// GeminiCCAdaptive is GeminiCC with sparse/dense mode switching; cc starts
// with a full frontier, so its first rounds go dense.
func GeminiCCAdaptive(e *gemini.Engine) (rounds, dense int) {
	hg := e.HG
	return e.RunPushAdaptive(
		func(activate func(lv uint32)) {
			for lv := 0; lv < hg.NumLocal; lv++ {
				e.Set(uint32(lv), uint64(hg.L2G[lv]))
				if hg.IsMaster(uint32(lv)) {
					activate(uint32(lv))
				}
			}
		},
		func(v uint64, _ uint32) uint64 { return v })
}

// GeminiPageRank runs iters pagerank rounds and returns per-master ranks
// (indexed by local id; only master entries are meaningful). The engine
// must be built with identity 0 and float-add reduction: its values serve
// as the per-round contribution accumulators.
func GeminiPageRank(e *gemini.Engine, iters int) []float64 {
	hg := e.HG
	n := float64(hg.GlobalN)
	threads := e.H.Pool.Workers()

	// Phase 1: globalize out-degrees. Under destination-owned edges a
	// vertex's out-edges are scattered, so each host streams its local
	// out-degree of every proxy to the owner.
	e.SetReduce(0, func(a, b uint64) uint64 { return a + b })
	e.StreamRound(
		func(t int, emit func(peer int, gsrc uint32, val uint64)) {
			c := (hg.NumLocal + threads - 1) / threads
			lo, hi := t*c, (t+1)*c
			if hi > hg.NumLocal {
				hi = hg.NumLocal
			}
			for lv := lo; lv < hi; lv++ {
				d := hg.Local.Degree(lv)
				if d == 0 {
					continue
				}
				if hg.IsMaster(uint32(lv)) {
					e.Apply(uint32(lv), uint64(d))
				} else {
					emit(hg.OwnerOf[lv], hg.L2G[lv], uint64(d))
				}
			}
		},
		func(gsrc uint32, val uint64) {
			lv, _ := hg.G2L(gsrc)
			e.Apply(lv, val)
		})
	deg := make([]uint64, hg.NumMasters)
	for m := range deg {
		deg[m] = e.Get(uint32(m))
	}
	// The values become float contribution accumulators from here on.
	e.SetReduce(0, addF64)

	rank := make([]float64, hg.NumMasters)
	for m := range rank {
		rank[m] = 1.0 / n
	}

	// Phase 2: iterate. Each round streams (u, contribution) signals to the
	// hosts holding u's out-edges; slots add contribution/edge into local
	// master accumulators; then masters recompute their rank locally.
	for it := 0; it < iters; it++ {
		e.StreamRound(
			func(t int, emit func(peer int, gsrc uint32, val uint64)) {
				// Local slot for own masters' local out-edges.
				c := (hg.NumMasters + threads - 1) / threads
				lo, hi := t*c, (t+1)*c
				if hi > hg.NumMasters {
					hi = hg.NumMasters
				}
				for m := lo; m < hi; m++ {
					if deg[m] == 0 {
						continue
					}
					contrib := math.Float64bits(rank[m] / float64(deg[m]))
					for _, v := range hg.Local.Neighbors(m) {
						e.Apply(v, contrib)
					}
				}
				// Signals to mirror hosts.
				for p := 0; p < hg.P; p++ {
					list := hg.MastersFor[p]
					if len(list) == 0 {
						continue
					}
					cl := (len(list) + threads - 1) / threads
					llo, lhi := t*cl, (t+1)*cl
					if lhi > len(list) {
						lhi = len(list)
					}
					for i := llo; i < lhi; i++ {
						m := list[i]
						if deg[m] == 0 {
							continue
						}
						emit(p, hg.L2G[m], math.Float64bits(rank[m]/float64(deg[m])))
					}
				}
			},
			func(gsrc uint32, val uint64) {
				lv, _ := hg.G2L(gsrc)
				for _, v := range hg.Local.Neighbors(int(lv)) {
					e.Apply(v, val)
				}
			})

		// Local rank update from accumulators.
		t0 := time.Now()
		for m := 0; m < hg.NumMasters; m++ {
			sum := math.Float64frombits(e.Get(uint32(m)))
			rank[m] = (1-PageRankDamping)/n + PageRankDamping*sum
			e.Set(uint32(m), 0)
		}
		e.ComputeTime += time.Since(t0)
	}
	return rank
}
