package gemini

import (
	"encoding/binary"
	"time"

	"lcigraph/internal/bitset"
	"lcigraph/internal/comm"
)

// Dense mode. Gemini adaptively switches between a sparse (push) round —
// per-active-vertex signals — and a dense round when the frontier is large:
// each host ships, once per peer, a bitmap of its active masters mirrored
// there plus their values, and the receiving slot relaxes every listed
// mirror's local out-edges. One bulk message per (host, peer) pair replaces
// per-vertex signalling, exactly the dense/sparse duality of Gemini's
// engine [7].

const kindBulk = 2

// denseThreshold switches to a dense round when active masters exceed this
// fraction (1/denseFrac) of all masters.
const denseFrac = 20

// DenseRound runs one dense round over frontier cur, relaxing into next.
func (e *Engine) DenseRound(cur, next *bitset.Bitset,
	relax func(srcVal uint64, w uint32) uint64) {

	hg := e.HG
	P := hg.P
	startCompute := time.Now()

	// Local slots for all active masters.
	e.H.Pool.ForRange(hg.NumMasters, func(lo, hi int) {
		cur.ForEachRange(lo, hi, func(u int) {
			e.relaxEdges(uint32(u), e.Get(uint32(u)), relax, next)
		})
	})

	// One bulk message per peer: bitmap over MastersFor[p] + values.
	e.H.Pool.For(P, func(p int) {
		list := hg.MastersFor[p]
		if len(list) == 0 {
			return
		}
		count := 0
		for _, lm := range list {
			if cur.Test(int(lm)) {
				count++
			}
		}
		bmLen := (len(list) + 7) / 8
		buf := e.S.AllocBuf(4 + bmLen + 8*count)
		binary.LittleEndian.PutUint32(buf, uint32(count))
		bm := buf[4 : 4+bmLen]
		for i := range bm {
			bm[i] = 0
		}
		vals := buf[4+bmLen:]
		vi := 0
		for i, lm := range list {
			if cur.Test(int(lm)) {
				bm[i/8] |= 1 << (i % 8)
				binary.LittleEndian.PutUint64(vals[vi*8:], e.Get(lm))
				vi++
			}
		}
		e.S.SendMsg(p, p, tagOf(e.round, kindBulk), buf)
	})
	e.ComputeTime += time.Since(startCompute)
	commStart := time.Now()

	// Expect exactly one bulk message from every peer whose masters have
	// mirrors here.
	want := 0
	for p := 0; p < P; p++ {
		if p != e.H.Rank && len(hg.MirrorsHere[p]) > 0 {
			want++
		}
	}
	tag := tagOf(e.round, kindBulk)
	for _, m := range e.stash[tag] {
		e.applyBulk(m, relax, next)
		want--
	}
	delete(e.stash, tag)
	for want > 0 {
		m, ok := e.S.RecvMsg()
		if !ok {
			e.awaitRecv()
			continue
		}
		if m.Tag != tag {
			e.stash[m.Tag] = append(e.stash[m.Tag], m)
			continue
		}
		e.applyBulk(m, relax, next)
		want--
	}
	e.endRound()
	e.CommTime += time.Since(commStart)
	e.round++
	e.Rounds++
}

// applyBulk runs the dense slot: relax the local out-edges of every mirror
// listed active in the bulk message.
func (e *Engine) applyBulk(m comm.Message, relax func(uint64, uint32) uint64, next *bitset.Bitset) {
	hg := e.HG
	list := hg.MirrorsHere[m.Peer]
	bmLen := (len(list) + 7) / 8
	if len(m.Data) < 4+bmLen {
		panic("gemini: short bulk message")
	}
	bm := m.Data[4 : 4+bmLen]
	vals := m.Data[4+bmLen:]
	vi := 0
	for i := 0; i < len(list); {
		if i%8 == 0 && bm[i/8] == 0 && i+8 <= len(list) {
			i += 8
			continue
		}
		if bm[i/8]&(1<<(i%8)) != 0 {
			val := binary.LittleEndian.Uint64(vals[vi*8:])
			vi++
			e.relaxEdges(list[i], val, relax, next)
		}
		i++
	}
	m.Release()
}

// RunPushAdaptive is RunPush with Gemini's sparse/dense mode selection: a
// round goes dense when the frontier exceeds 1/denseFrac of the masters.
// It returns rounds executed and how many were dense.
func (e *Engine) RunPushAdaptive(
	seed func(activate func(lv uint32)),
	relax func(srcVal uint64, w uint32) uint64) (rounds, dense int) {

	hg := e.HG
	cur := bitset.New(hg.NumLocal)
	next := bitset.New(hg.NumLocal)
	seed(func(lv uint32) { cur.Set(int(lv)) })

	threads := e.H.Pool.Workers()
	for {
		rounds++
		// Mode decision must agree globally: use the global frontier size.
		t0 := time.Now()
		frontier := e.H.AllreduceSum(int64(cur.CountRange(0, hg.NumMasters)))
		totalMasters := e.H.AllreduceSum(int64(hg.NumMasters))
		e.CommTime += time.Since(t0)

		if frontier*denseFrac >= totalMasters {
			dense++
			e.DenseRound(cur, next, relax)
		} else {
			e.sparseRound(cur, next, relax, threads)
		}

		t1 := time.Now()
		global := e.H.AllreduceSum(int64(next.CountRange(0, hg.NumMasters)))
		e.CommTime += time.Since(t1)
		if global == 0 {
			return rounds, dense
		}
		cur, next = next, cur
		next.Reset()
	}
}

// sparseRound is one signal/slot push round (the body of RunPush).
func (e *Engine) sparseRound(cur, next *bitset.Bitset,
	relax func(srcVal uint64, w uint32) uint64, threads int) {

	hg := e.HG
	chunk := (hg.NumMasters + threads - 1) / threads
	e.StreamRound(
		func(t int, emit func(peer int, gsrc uint32, val uint64)) {
			lo, hi := t*chunk, (t+1)*chunk
			if hi > hg.NumMasters {
				hi = hg.NumMasters
			}
			if lo < hi {
				cur.ForEachRange(lo, hi, func(u int) {
					e.relaxEdges(uint32(u), e.Get(uint32(u)), relax, next)
				})
			}
			for p := 0; p < hg.P; p++ {
				list := hg.MastersFor[p]
				if len(list) == 0 {
					continue
				}
				c := (len(list) + threads - 1) / threads
				llo, lhi := t*c, (t+1)*c
				if lhi > len(list) {
					lhi = len(list)
				}
				for i := llo; i < lhi; i++ {
					lm := list[i]
					if cur.Test(int(lm)) {
						emit(p, hg.L2G[lm], e.Get(lm))
					}
				}
			}
		},
		func(gsrc uint32, val uint64) {
			lv, ok := hg.G2L(gsrc)
			if !ok {
				panic("gemini: signal for vertex without proxy")
			}
			e.relaxEdges(lv, val, relax, next)
		})
}
