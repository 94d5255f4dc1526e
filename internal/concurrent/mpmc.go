// Package concurrent provides the lock-free and low-lock queue primitives the
// LCI runtime is built on: a bounded fetch-and-add MPMC ring (used for the
// incoming-packet queue and the packet-pool freelist) and a multi-producer
// single-consumer queue (used by the buffered MPI layer to funnel sends into
// the dedicated communication thread).
//
// The MPMC ring follows the fetch-and-add design the paper cites for its
// incoming-packet queue: producers and consumers claim slots with atomic
// ticket counters and synchronize per-slot with sequence numbers, so the
// uncontended path is one fetch-add plus one CAS-free store.
package concurrent

import (
	"sync/atomic"
)

// cacheLine is the assumed cache-line size used for padding hot counters so
// producer and consumer tickets do not false-share.
const cacheLine = 64

type pad [cacheLine]byte

// slot is one cell of the MPMC ring. seq carries the slot's state:
//
//	seq == pos        → empty, writable by the producer holding ticket pos
//	seq == pos+1      → full, readable by the consumer holding ticket pos
//	anything else     → the ring wrapped; the contender must retry or fail
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// MPMC is a bounded multi-producer multi-consumer FIFO ring queue.
// The zero value is not usable; construct with NewMPMC.
//
// Enqueue and Dequeue are non-blocking: they fail immediately when the queue
// is full or empty respectively, matching the retry-oriented style of the LCI
// interface (a failed SEND-ENQ simply means "try again later").
type MPMC[T any] struct {
	_       pad
	enqPos  atomic.Uint64
	_       pad
	deqPos  atomic.Uint64
	_       pad
	mask    uint64
	slots   []slot[T]
	nilElem T
}

// NewMPMC returns an MPMC queue with capacity rounded up to the next power of
// two (minimum 2).
func NewMPMC[T any](capacity int) *MPMC[T] {
	n := uint64(2)
	for n < uint64(capacity) {
		n <<= 1
	}
	q := &MPMC[T]{mask: n - 1, slots: make([]slot[T], n)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the queue capacity.
func (q *MPMC[T]) Cap() int { return len(q.slots) }

// Enqueue attempts to append v. It returns false if the queue is full.
func (q *MPMC[T]) Enqueue(v T) bool {
	for {
		pos := q.enqPos.Load()
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos:
			if q.enqPos.CompareAndSwap(pos, pos+1) {
				s.val = v
				s.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			// The slot still holds an element from a lap ago: full.
			return false
		default:
			// Another producer advanced enqPos; retry with fresh ticket.
		}
	}
}

// Dequeue attempts to remove the oldest element. It returns the zero value
// and false if the queue is empty.
func (q *MPMC[T]) Dequeue() (T, bool) {
	for {
		pos := q.deqPos.Load()
		s := &q.slots[pos&q.mask]
		seq := s.seq.Load()
		switch {
		case seq == pos+1:
			if q.deqPos.CompareAndSwap(pos, pos+1) {
				v := s.val
				s.val = q.nilElem
				s.seq.Store(pos + q.mask + 1)
				return v, true
			}
		case seq <= pos:
			// Slot not yet published: empty.
			return q.nilElem, false
		default:
			// Stale ticket; retry.
		}
	}
}

// DequeueBatch removes up to len(dst) elements in one pass, returning the
// number stored into dst. The span of ready slots is claimed with a single
// CAS on the consumer ticket, so draining a burst costs one atomic
// reservation instead of one per element.
//
// Safety: after the CAS moves deqPos from pos to pos+n, tickets
// pos..pos+n-1 belong exclusively to this caller (other consumers' CAS on
// pos fails), and every claimed slot was already published by its producer
// (seq == pos+i+1 was observed, and producers cannot touch a slot again
// until the consumer republishes it).
func (q *MPMC[T]) DequeueBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	for {
		pos := q.deqPos.Load()
		// Count consecutive published slots starting at pos.
		n := 0
		max := len(dst)
		if m := len(q.slots); max > m {
			max = m
		}
		for n < max {
			p := pos + uint64(n)
			if q.slots[p&q.mask].seq.Load() != p+1 {
				break
			}
			n++
		}
		if n == 0 {
			return 0
		}
		if !q.deqPos.CompareAndSwap(pos, pos+uint64(n)) {
			continue // another consumer raced us; retry with a fresh ticket
		}
		for i := 0; i < n; i++ {
			p := pos + uint64(i)
			s := &q.slots[p&q.mask]
			dst[i] = s.val
			s.val = q.nilElem
			s.seq.Store(p + q.mask + 1)
		}
		return n
	}
}

// Len returns an instantaneous (racy) estimate of the number of queued
// elements. It is intended for stats and tests, not for synchronization.
func (q *MPMC[T]) Len() int {
	e, d := q.enqPos.Load(), q.deqPos.Load()
	if e < d {
		return 0
	}
	n := e - d
	if n > uint64(len(q.slots)) {
		n = uint64(len(q.slots))
	}
	return int(n)
}
