package comm

import (
	"math/bits"
	"sync"

	"lcigraph/internal/memtrack"
)

// Buffer cache bounds. Capacities come in classes from 1<<minBufShift to
// 1<<maxBufShift bytes, four to each doubling (64, 80, 96, 112, 128, 160,
// …), so a class wastes at most a fifth of its capacity and the tracker's
// Fig. 5 footprint stays close to the bytes requested; larger buffers are
// plain allocations that the garbage collector reclaims. The cache parks at
// most bufCacheBytes of idle capacity per port, enough for a BSP round's
// gather and rendezvous buffers at the sizes the frameworks ship.
const (
	minBufShift   = 6  // 64 B
	maxBufShift   = 20 // 1 MiB
	subBufShift   = 2  // 1<<subBufShift classes per doubling
	numBufClasses = 1 + (maxBufShift-minBufShift)<<subBufShift
	bufCacheBytes = 4 << 20
)

// bufCache is an LCI port's buffer recycler: the gather buffers AllocBuf
// hands out and the rendezvous receive buffers (it is the port's
// lci.Allocator) come from it and go back to it, so a steady stream of
// messages of similar sizes reuses the same few buffers instead of
// allocating per message — the paper's "allocator can be any thread-safe
// memory manager" (Fig. 5).
//
// Alloc/Free are the tracked pair: a buffer is charged to the tracker at its
// capacity (the bytes the host really holds) when it leaves the cache and
// uncharged at the same capacity when it comes back, so a sender that ships
// a shortened slice (Gemini's partial batch) frees exactly what AllocBuf
// charged. get/put are the untracked pair underneath them. Parked buffers
// are never charged. Safe for concurrent use.
type bufCache struct {
	tracker *memtrack.Tracker

	mu   sync.Mutex
	held int // capacity parked in free
	free [numBufClasses][][]byte
}

// bufClass returns the class index for an n-byte buffer, or -1 when n is
// above the largest class. Class 0 is 1<<minBufShift; above it, n in
// (2^e, 2^(e+1)] rounds up to a multiple m of 2^(e-subBufShift), m in
// (4, 8] for subBufShift 2.
func bufClass(n int) int {
	if n <= 1<<minBufShift {
		return 0
	}
	if n > 1<<maxBufShift {
		return -1
	}
	e := bits.Len(uint(n-1)) - 1
	m := (n-1)>>(e-subBufShift) + 1
	return (e-minBufShift)<<subBufShift + m - 1<<subBufShift
}

// bufClassSize returns class k's capacity.
func bufClassSize(k int) int {
	if k == 0 {
		return 1 << minBufShift
	}
	e := (k-1)>>subBufShift + minBufShift
	m := (k-1)&(1<<subBufShift-1) + 1<<subBufShift + 1
	return m << (e - subBufShift)
}

// get returns an untracked buffer of length n with its class's capacity.
// Its contents are unspecified.
func (c *bufCache) get(n int) []byte {
	k := bufClass(n)
	if k < 0 {
		return make([]byte, n)
	}
	c.mu.Lock()
	if l := c.free[k]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		c.free[k] = l[:len(l)-1]
		c.held -= cap(b)
		c.mu.Unlock()
		return b[:n]
	}
	c.mu.Unlock()
	return make([]byte, n, bufClassSize(k))
}

// put parks b for reuse. A buffer whose capacity is not exactly a class size
// (oversized, or not from this cache), or that would take the cache past
// bufCacheBytes, is left to the garbage collector.
func (c *bufCache) put(b []byte) {
	k := bufClass(cap(b))
	if k < 0 || cap(b) != bufClassSize(k) {
		return
	}
	c.mu.Lock()
	if c.held+cap(b) <= bufCacheBytes {
		c.free[k] = append(c.free[k], b[:0])
		c.held += cap(b)
	}
	c.mu.Unlock()
}

// Alloc returns a tracked buffer of length n (contents unspecified) and
// charges its capacity. It implements lci.Allocator for rendezvous receives.
func (c *bufCache) Alloc(n int) []byte {
	b := c.get(n)
	c.tracker.Alloc(cap(b))
	return b
}

// Free uncharges a buffer from Alloc (or AllocBuf), however it was resliced,
// and parks it for reuse. It implements lci.Allocator.
func (c *bufCache) Free(b []byte) {
	c.tracker.Free(cap(b))
	c.put(b)
}
