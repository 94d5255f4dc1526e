// Package comm implements the Abelian/Gemini communication runtime of the
// paper's Fig. 2 — the gather-communicate-scatter layer — with three
// interchangeable backends:
//
//   - ProbeLayer (§III-B): two-sided MPI with a dedicated communication
//     thread, MPSC send funneling, small-message aggregation with a
//     timeout, and MPI_Iprobe-driven receives (MPI_THREAD_FUNNELED).
//   - RMALayer (§III-C): one-sided MPI with per-(tag,source) windows sized
//     at the all-nodes-active upper bound, generalized active-target
//     synchronization, and a dedicated progress thread
//     (MPI_THREAD_MULTIPLE).
//   - LCILayer (§III-D): the LCI Queue interface; compute threads call
//     SEND-ENQ/RECV-DEQ directly and a communication server progresses the
//     network.
//
// The frameworks drive a layer through Exchange: one bulk synchronization
// step per (pattern, field) with a stable tag. Receivers process messages
// in arrival order (scatter overlap), and an out-of-phase message — a fast
// peer's next-round traffic — is stashed for the Exchange that wants it.
package comm

import (
	"encoding/binary"

	"lcigraph/internal/memtrack"
)

// Message is one received logical message.
type Message struct {
	Peer int
	Tag  uint32 // effective tag (base tag + epoch)
	Data []byte
	// release returns the underlying buffer to the layer; the data is
	// invalid afterwards. Records unpacked from a bundle instead share one
	// ref, so releasing a record costs no allocation.
	release func()
	ref     *bundleRef
}

// Release returns the message's buffer to the layer. Data is invalid from
// then on: the LCI layers hand the buffer to a later send or receive, so a
// consumer copies (or decodes) whatever it keeps before releasing. Keeping
// an unreleased Message is fine — its buffer stays out of circulation until
// Release. A second Release of the same Message does nothing; copies of a
// Message share its buffer, so release only one of them.
func (m *Message) Release() {
	if m.ref != nil {
		m.ref.dec()
		m.ref = nil
		return
	}
	if m.release != nil {
		m.release()
		m.release = nil
	}
}

// Layer is one pluggable communication backend.
//
// The framework contract for Exchange:
//
//   - Every host calls Exchange with the same base tag in the same order
//     (BSP phases).
//   - out[p] is the payload for peer p (nil ⇒ nothing to say; out[self]
//     is ignored). The layer owns each non-nil buffer (allocated with
//     AllocBuf) from the call on and recycles it when the send completes,
//     so the caller must not read or write it after Exchange.
//   - expect[s] says whether peer s will send to us this phase (statically
//     known from the partition's sync lists).
//   - onRecv is called once per expected message, in arrival order, from
//     the calling goroutine. The data slice is only valid during the call:
//     the layer recycles its buffer once onRecv returns, so anything kept
//     must be copied out.
//
// Exchange returns when all expected messages have been processed; sends
// may still be draining (they are flushed by later calls or Stop).
type Layer interface {
	Name() string
	Exchange(tag uint32, out [][]byte, expect []bool, recvMax []int,
		onRecv func(peer int, data []byte))
	// AllocBuf returns a tracked, zeroed buffer of n bytes for gather
	// payloads. Its capacity may exceed n; the layer charges (and later
	// frees) the capacity, whatever length the buffer is sent at.
	AllocBuf(n int) []byte
	// Tracker exposes this host's communication-buffer footprint counters.
	Tracker() *memtrack.Tracker
	// Stop shuts down the layer's background goroutines after draining.
	Stop()
}

// Epoch bookkeeping: both sides of every pair execute the same sequence of
// Exchange calls per tag, so a per-tag call counter disambiguates rounds
// (a fast peer's round-r+1 message must not satisfy a slow peer's round-r
// Exchange).
type epochs map[uint32]uint16

func (e epochs) next(tag uint32) uint32 {
	ep := e[tag]
	e[tag]++
	return effTag(tag, ep)
}

// effTag packs a base tag (≤ 255) and an epoch into a 24-bit value that
// fits both LCI's 32-bit tags and MPI's 24-bit tags.
func effTag(tag uint32, epoch uint16) uint32 {
	return tag&0xff<<16 | uint32(epoch)
}

// stash holds messages that arrived for a later (or concurrent other-tag)
// Exchange.
type stash map[uint32][]Message

func (s stash) put(m Message) { s[m.Tag] = append(s[m.Tag], m) }

func (s stash) take(tag uint32) (Message, bool) {
	l := s[tag]
	if len(l) == 0 {
		return Message{}, false
	}
	m := l[0]
	copy(l, l[1:])
	s[tag] = l[:len(l)-1]
	return m, true
}

// done drops tag's key once its epoch has received every expected message.
// Epoch tags are never reused until the epoch counter wraps, so without it a
// long-lived layer keeps one empty slice per finished epoch. Async traffic's
// fixed tag keeps its key: deleting there would allocate a fresh slice per
// message.
func (s stash) done(tag uint32) {
	if len(s[tag]) == 0 {
		delete(s, tag)
	}
}

// countExpected returns the number of peers we must hear from.
func countExpected(expect []bool, self int) int {
	n := 0
	for p, e := range expect {
		if e && p != self {
			n++
		}
	}
	return n
}

// putLen / getLen frame a payload with its length (RMA windows and
// aggregation bundles need explicit lengths).
func putLen(b []byte, n int) { binary.LittleEndian.PutUint64(b, uint64(n)) }
func getLen(b []byte) int    { return int(binary.LittleEndian.Uint64(b)) }
