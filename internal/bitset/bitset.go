// Package bitset provides a fixed-size bitset with a concurrent and a
// single-writer mode.
//
// The graph runtimes use bitsets to track which proxies were updated in a
// round: compute threads set bits during the operator phase, and the gather
// phase reads them to serialize only updated labels (the paper's
// "synchronizing only the updated labels" optimization in Abelian). With
// several compute threads the setters race and every write is a CAS; with
// one, the phases are ordered by the pool's fork-join and plain word
// operations suffice.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitset is a fixed-capacity set of bit indices [0, Len).
//
// A bitset from New is safe for concurrent use: Set, Clear and ClearRange
// are CAS loops. One from NewSingleWriter writes with plain word
// operations. Reads (Test, Count, Any, ForEach and the range forms) are
// atomic loads in both modes; bulk reads running concurrently with setters
// see a racy snapshot, and callers in the BSP runtimes sequence them with
// phase barriers.
type Bitset struct {
	n      int
	single bool
	// words is accessed through sync/atomic in the concurrent mode. A
	// freshly allocated slice's first element is 64-bit aligned on every
	// platform, which those functions need.
	words []uint64
}

// New returns a bitset able to hold n bits, all clear, whose writers may
// run concurrently.
func New(n int) *Bitset {
	return &Bitset{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// NewSingleWriter returns a bitset able to hold n bits, all clear, for a
// caller that never accesses it from two goroutines at once: every access
// must be ordered after the previous one by a happens-before edge (a
// fork-join, a lock, a channel). Its writes are plain word operations.
func NewSingleWriter(n int) *Bitset {
	b := New(n)
	b.single = true
	return b
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i. It reports whether the bit was previously clear (i.e. this
// call changed it), which lets callers maintain "newly activated" counts.
func (b *Bitset) Set(i int) bool {
	w, m := &b.words[i/wordBits], uint64(1)<<(i%wordBits)
	if b.single {
		old := *w
		*w = old | m
		return old&m == 0
	}
	return casSet(w, m)
}

// casSet is Set's concurrent path.
func casSet(w *uint64, m uint64) bool {
	for {
		old := atomic.LoadUint64(w)
		if old&m != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|m) {
			return true
		}
	}
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.clearMask(i/wordBits, uint64(1)<<(i%wordBits)) }

// ClearRange clears every bit i with lo <= i < hi, one word operation per
// word the range touches. Bounds outside [0, Len) are clipped.
func (b *Bitset) ClearRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	for lo < hi {
		w := lo / wordBits
		m := ^uint64(0) << (lo % wordBits)
		end := (w + 1) * wordBits
		if end > hi {
			m &= (uint64(1) << (hi % wordBits)) - 1
		}
		b.clearMask(w, m)
		lo = end
	}
}

// clearMask clears the bits of mask m in word w.
func (b *Bitset) clearMask(w int, m uint64) {
	p := &b.words[w]
	if b.single {
		*p &^= m
		return
	}
	for {
		old := atomic.LoadUint64(p)
		if old&m == 0 || atomic.CompareAndSwapUint64(p, old, old&^m) {
			return
		}
	}
}

// Test reports whether bit i is set.
func (b *Bitset) Test(i int) bool {
	return atomic.LoadUint64(&b.words[i/wordBits])&(uint64(1)<<(i%wordBits)) != 0
}

// Reset clears all bits.
func (b *Bitset) Reset() {
	if b.single {
		clear(b.words)
		return
	}
	for i := range b.words {
		atomic.StoreUint64(&b.words[i], 0)
	}
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for i := range b.words {
		n += bits.OnesCount64(atomic.LoadUint64(&b.words[i]))
	}
	return n
}

// Any reports whether any bit is set.
func (b *Bitset) Any() bool {
	for i := range b.words {
		if atomic.LoadUint64(&b.words[i]) != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for w := range b.words {
		word := atomic.LoadUint64(&b.words[w])
		base := w * wordBits
		for word != 0 {
			t := bits.TrailingZeros64(word)
			fn(base + t)
			word &^= 1 << t
		}
	}
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitset) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	n := 0
	for i := lo; i < hi; {
		w := i / wordBits
		word := atomic.LoadUint64(&b.words[w])
		// Mask off bits below i and at/above hi within this word.
		word &= ^uint64(0) << (i % wordBits)
		end := (w + 1) * wordBits
		if end > hi {
			word &= (uint64(1) << (hi % wordBits)) - 1
		}
		n += bits.OnesCount64(word)
		i = end
	}
	return n
}

// ForEachRange calls fn for every set bit i with lo <= i < hi, ascending.
func (b *Bitset) ForEachRange(lo, hi int, fn func(i int)) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	for i := lo; i < hi; {
		w := i / wordBits
		word := atomic.LoadUint64(&b.words[w])
		word &= ^uint64(0) << (i % wordBits)
		end := (w + 1) * wordBits
		if end > hi {
			word &= (uint64(1) << (hi % wordBits)) - 1
		}
		base := w * wordBits
		for word != 0 {
			t := bits.TrailingZeros64(word)
			fn(base + t)
			word &^= 1 << t
		}
		i = end
	}
}
