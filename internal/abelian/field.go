package abelian

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"lcigraph/internal/bitset"
	"lcigraph/internal/cluster"
)

// Field is one distributed vertex label: a uint64 slot per local proxy
// (applications pack their value type — distance, component id, float bits —
// into the word), an updated-bitset, a reduction operator, and the
// synchronization machinery of §III-A.
//
// Writes go through Apply, which merges a value with the reduction operator.
// Which of two write paths a field takes is fixed in NewField by the rank's
// compute-thread count:
//
//   - one thread (single-writer): every access runs sequentially, on the
//     pool's one worker or on the rank's goroutine between Pool.For calls,
//     whose fork-join orders the two. Apply, ApplyEach, Set, Get and the
//     sync gather/scatter use plain loads and stores, on the values and on
//     the updated bitset (bitset.NewSingleWriter).
//   - two or more threads: Apply is a CAS loop, the gather reset and the
//     broadcast overwrite are atomic swaps, Get is an atomic load, and the
//     updated bits are set and cleared by CAS, so any compute thread may
//     write any proxy concurrently.
//
// Sync ships only updated entries, using a bitmap over the statically-known
// per-peer sync lists so no per-element indices travel.
type Field struct {
	rt       *Runtime
	vals     []uint64
	single   bool // one compute thread: plain loads and stores (see above)
	updated  *bitset.Bitset
	identity uint64
	reduce   func(a, b uint64) uint64

	tagReduce uint32
	tagBcast  uint32

	// OnChange, if set, is called for every proxy whose value changed due
	// to synchronization (activation hook). It may be called concurrently
	// from scatter workers.
	OnChange func(lv uint32)

	reduceRecvMax []int
	bcastRecvMax  []int
	reduceExpect  []bool
	bcastExpect   []bool
}

// NewField creates a field initialized to identity everywhere.
func (rt *Runtime) NewField(identity uint64, reduce func(a, b uint64) uint64) *Field {
	hg := rt.HG
	single := rt.Host.Pool.Workers() == 1
	newBits := bitset.New
	if single {
		newBits = bitset.NewSingleWriter
	}
	f := &Field{
		rt:        rt,
		vals:      make([]uint64, hg.NumLocal),
		single:    single,
		updated:   newBits(hg.NumLocal),
		identity:  identity,
		reduce:    reduce,
		tagReduce: rt.nextTag,
		tagBcast:  rt.nextTag + 1,
	}
	// [cluster.IncidentTag, cluster.CollectiveTag] is reserved: collectives
	// ride CollectiveTag, the serving layer's query/reply/control traffic
	// rides the tags below it, health heartbeats ride HealthTag, and
	// incident-capture evidence rides IncidentTag at the bottom. A field tag
	// reaching the range would silently corrupt any of them.
	if f.tagBcast >= cluster.IncidentTag {
		panic(fmt.Sprintf("abelian: field tags %d/%d reach the reserved range [%d,%d] (too many fields on one runtime)",
			f.tagReduce, f.tagBcast, cluster.IncidentTag, cluster.CollectiveTag))
	}
	rt.nextTag += 2
	if identity != 0 {
		for i := range f.vals {
			f.vals[i] = identity
		}
	}
	P := hg.P
	f.reduceRecvMax = make([]int, P)
	f.bcastRecvMax = make([]int, P)
	f.reduceExpect = make([]bool, P)
	f.bcastExpect = make([]bool, P)
	for p := 0; p < P; p++ {
		// Reduce: we receive from hosts holding mirrors of our masters.
		f.reduceRecvMax[p] = msgSize(len(hg.MastersFor[p]), len(hg.MastersFor[p]))
		f.reduceExpect[p] = len(hg.MastersFor[p]) > 0
		// Broadcast: we receive from master hosts of our mirrors.
		f.bcastRecvMax[p] = msgSize(len(hg.MirrorsHere[p]), len(hg.MirrorsHere[p]))
		f.bcastExpect[p] = len(hg.MirrorsHere[p]) > 0
	}
	rt.fields = append(rt.fields, f)
	return f
}

// Wire format of a sync message over a list of length L carrying C updated
// values: a u32 header whose high bit selects the encoding —
//
//	bitmap (bit clear): header | ⌈L/8⌉ bitmap bytes | C × u64 values
//	pairs  (bit set):   header | C × (u32 list index, u64 value)
//
// The gather picks whichever is smaller (pairs win when C < L/32), the
// density-adaptive metadata minimization Abelian's runtime performs.
const pairFormat = uint32(1) << 31

// msgSize returns the worst-case wire size of a sync message carrying
// `count` updated values out of a list of length `list` (the bitmap format;
// the pairs format is only chosen when it is smaller).
func msgSize(list, count int) int {
	if list == 0 {
		return 0
	}
	return 4 + (list+7)/8 + 8*count
}

// Get reads the current value of local proxy lv.
func (f *Field) Get(lv uint32) uint64 {
	if f.single {
		return f.vals[lv]
	}
	return atomic.LoadUint64(&f.vals[lv])
}

// Set stores v unconditionally and marks lv updated.
func (f *Field) Set(lv uint32, v uint64) {
	f.SetLocal(lv, v)
	f.updated.Set(int(lv))
}

// SetLocal stores v without marking updated (initialization).
func (f *Field) SetLocal(lv uint32, v uint64) {
	if f.single {
		f.vals[lv] = v
		return
	}
	atomic.StoreUint64(&f.vals[lv], v)
}

// swap stores v and returns the value it replaced.
func (f *Field) swap(lv uint32, v uint64) uint64 {
	if f.single {
		old := f.vals[lv]
		f.vals[lv] = v
		return old
	}
	return atomic.SwapUint64(&f.vals[lv], v)
}

// Apply combines v into proxy lv with the field's reduction operator,
// atomically when the rank has more than one compute thread. It returns
// true — and marks the proxy updated — when the stored value changed.
func (f *Field) Apply(lv uint32, v uint64) bool {
	if f.single {
		old := f.vals[lv]
		merged := f.reduce(old, v)
		if merged == old {
			return false
		}
		f.vals[lv] = merged
		f.updated.Set(int(lv))
		return true
	}
	for {
		old := atomic.LoadUint64(&f.vals[lv])
		merged := f.reduce(old, v)
		if merged == old {
			return false
		}
		if atomic.CompareAndSwapUint64(&f.vals[lv], old, merged) {
			f.updated.Set(int(lv))
			return true
		}
	}
}

// ApplyEach applies v to every proxy in lvs, in order, exactly as one Apply
// call per element would (the same merges, so the same bits). A
// single-writer field runs it as one loop over its values, with no call per
// element but the reduction; with more compute threads it is per-element
// Apply.
func (f *Field) ApplyEach(lvs []uint32, v uint64) {
	if !f.single {
		for _, lv := range lvs {
			f.Apply(lv, v)
		}
		return
	}
	vals, reduce, updated := f.vals, f.reduce, f.updated
	for _, lv := range lvs {
		old := vals[lv]
		if merged := reduce(old, v); merged != old {
			vals[lv] = merged
			updated.Set(int(lv))
		}
	}
}

// Sync performs the policy-appropriate synchronization: reduce
// (mirrors→masters) always, broadcast (masters→mirrors) when the
// partitioning policy replicates read vertices (§II's partition-aware
// choice).
func (f *Field) Sync() {
	f.SyncReduce()
	if f.rt.Pol.NeedsBroadcast() {
		f.SyncBroadcast()
	}
}

// SyncReduce ships updated mirror values to their masters and combines them
// with the reduction operator. Shipped mirrors are reset to the identity so
// a value reduces into its master exactly once.
func (f *Field) SyncReduce() {
	rt := f.rt
	hg := rt.HG
	start := time.Now()

	out := make([][]byte, hg.P)
	rt.Host.Pool.For(hg.P, func(p int) {
		out[p] = f.gather(hg.MirrorsHere[p], true)
	})
	rt.Host.Layer.Exchange(f.tagReduce, out, f.reduceExpect, f.reduceRecvMax,
		func(peer int, data []byte) {
			f.scatter(hg.MastersFor[peer], data, true)
		})
	rt.CommTime += time.Since(start)
}

// SyncBroadcast ships updated master values to all their mirrors
// (overwrite). Master updated-bits are cleared afterwards.
func (f *Field) SyncBroadcast() {
	rt := f.rt
	hg := rt.HG
	start := time.Now()

	// No reset here: a master may appear in many peers' lists.
	out := make([][]byte, hg.P)
	rt.Host.Pool.For(hg.P, func(p int) {
		out[p] = f.gather(hg.MastersFor[p], false)
	})

	rt.Host.Layer.Exchange(f.tagBcast, out, f.bcastExpect, f.bcastRecvMax,
		func(peer int, data []byte) {
			f.scatter(hg.MirrorsHere[peer], data, false)
		})

	// Masters are local ids [0, NumMasters); clear them only after every
	// gather ran.
	f.updated.ClearRange(0, hg.NumMasters)
	rt.CommTime += time.Since(start)
}

// gather serializes the updated entries of list, choosing the smaller of
// the bitmap and index-value-pair encodings. When reset is true (reduce),
// shipped mirrors are reset to identity and their updated bits cleared (a
// mirror has exactly one master host, so this is race-free across the
// per-peer parallel gathers).
func (f *Field) gather(list []uint32, reset bool) []byte {
	if len(list) == 0 {
		return nil
	}
	count := 0
	for _, lv := range list {
		if f.updated.Test(int(lv)) {
			count++
		}
	}
	take := func(lv uint32) uint64 {
		if reset {
			f.updated.Clear(int(lv))
			return f.swap(lv, f.identity)
		}
		return f.Get(lv)
	}

	bmLen := (len(list) + 7) / 8
	if 12*count < bmLen+8*count {
		// Sparse: index-value pairs.
		buf := f.rt.Host.Layer.AllocBuf(4 + 12*count)
		binary.LittleEndian.PutUint32(buf, uint32(count)|pairFormat)
		off := 4
		for i, lv := range list {
			if !f.updated.Test(int(lv)) {
				continue
			}
			binary.LittleEndian.PutUint32(buf[off:], uint32(i))
			binary.LittleEndian.PutUint64(buf[off+4:], take(lv))
			off += 12
		}
		return buf
	}

	buf := f.rt.Host.Layer.AllocBuf(msgSize(len(list), count))
	binary.LittleEndian.PutUint32(buf, uint32(count))
	bm := buf[4 : 4+bmLen]
	vals := buf[4+bmLen:]
	vi := 0
	for i, lv := range list {
		if !f.updated.Test(int(lv)) {
			continue
		}
		bm[i/8] |= 1 << (i % 8)
		binary.LittleEndian.PutUint64(vals[vi*8:], take(lv))
		vi++
	}
	return buf
}

// scatter applies one incoming sync message over list. When combine is true
// (reduce) values merge through the reduction operator and mark masters
// updated; otherwise (broadcast) values overwrite mirrors. OnChange fires
// for every changed proxy. Scatter parallelizes across the compute threads
// using bitmap popcount prefix offsets.
func (f *Field) scatter(list []uint32, data []byte, combine bool) {
	if len(list) == 0 || len(data) < 4 {
		return
	}
	header := binary.LittleEndian.Uint32(data)
	if header&pairFormat != 0 {
		f.scatterPairs(list, data[4:], int(header&^pairFormat), combine)
		return
	}
	bmLen := (len(list) + 7) / 8
	bm := data[4 : 4+bmLen]
	vals := data[4+bmLen:]

	// Word-chunk prefix offsets so workers know where their values start.
	pool := f.rt.Host.Pool
	workers := pool.Workers()
	chunk := (len(list) + workers - 1) / workers
	if chunk < 64 {
		chunk = 64
	}
	nChunks := (len(list) + chunk - 1) / chunk
	offsets := make([]int, nChunks+1)
	for c := 0; c < nChunks; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > len(list) {
			hi = len(list)
		}
		offsets[c+1] = offsets[c] + popcountRange(bm, lo, hi)
	}

	pool.For(nChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > len(list) {
			hi = len(list)
		}
		vi := offsets[c]
		for i := lo; i < hi; i++ {
			if bm[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			v := binary.LittleEndian.Uint64(vals[vi*8:])
			vi++
			lv := list[i]
			if combine {
				if f.Apply(lv, v) && f.OnChange != nil {
					f.OnChange(lv)
				}
			} else {
				old := f.swap(lv, v)
				if old != v && f.OnChange != nil {
					f.OnChange(lv)
				}
			}
		}
	})
}

// scatterPairs applies a pairs-format message: count (u32 index, u64 value)
// records, parallelized across the compute threads.
func (f *Field) scatterPairs(list []uint32, body []byte, count int, combine bool) {
	f.rt.Host.Pool.ForRange(count, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			i := int(binary.LittleEndian.Uint32(body[k*12:]))
			v := binary.LittleEndian.Uint64(body[k*12+4:])
			lv := list[i]
			if combine {
				if f.Apply(lv, v) && f.OnChange != nil {
					f.OnChange(lv)
				}
			} else {
				old := f.swap(lv, v)
				if old != v && f.OnChange != nil {
					f.OnChange(lv)
				}
			}
		}
	})
}

// popcountRange counts set bits of bm in bit positions [lo, hi).
func popcountRange(bm []byte, lo, hi int) int {
	n := 0
	for i := lo; i < hi; {
		if i%8 == 0 && i+8 <= hi {
			n += bits.OnesCount8(bm[i/8])
			i += 8
			continue
		}
		if bm[i/8]&(1<<(i%8)) != 0 {
			n++
		}
		i++
	}
	return n
}

// ResetUpdated clears all updated marks (between algorithm phases).
func (f *Field) ResetUpdated() { f.updated.Reset() }

// UpdatedCount reports how many proxies are currently marked updated.
func (f *Field) UpdatedCount() int { return f.updated.Count() }
