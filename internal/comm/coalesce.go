package comm

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"lcigraph/internal/telemetry"
)

// This file holds the eager coalescer and the record framing it shares with
// the probe layer's MPI bundles: both pack many small logical messages into
// one near-eager-limit wire message so the per-message fabric cost (a frame,
// a header, a matching pass) is paid once per bundle instead of once per
// message.

// coalFlag marks bit 31 of a wire tag as "this payload is a bundle of
// records". Application tags never reach that bit: Layer epochs use 24 bits
// (effTag) and Gemini's stream tags are round<<2|kind.
const coalFlag uint32 = 1 << 31

// record framing inside a bundle: tag u32 | len u32 | payload.
const recHdr = 8

// appendRecord packs one record onto buf, which must have capacity for it.
func appendRecord(buf []byte, tag uint32, data []byte) []byte {
	off := len(buf)
	buf = buf[:off+recHdr+len(data)]
	binary.LittleEndian.PutUint32(buf[off:], tag)
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(len(data)))
	copy(buf[off+recHdr:], data)
	return buf
}

// forEachRecord walks the records of a bundle in order. buf's framing must
// have passed countRecords.
func forEachRecord(buf []byte, fn func(tag uint32, data []byte)) {
	off := 0
	for off < len(buf) {
		tag := binary.LittleEndian.Uint32(buf[off:])
		sz := int(binary.LittleEndian.Uint32(buf[off+4:]))
		fn(tag, buf[off+recHdr:off+recHdr+sz])
		off += recHdr + sz
	}
}

// countRecords validates a bundle's framing and returns its number of
// records, or -1 when a record header is truncated or a record runs past the
// end. Bundles arrive off the network, so their framing is never trusted.
func countRecords(buf []byte) int {
	n, off := 0, 0
	for off < len(buf) {
		if len(buf)-off < recHdr {
			return -1
		}
		sz := binary.LittleEndian.Uint32(buf[off+4:])
		if uint64(sz) > uint64(len(buf)-off-recHdr) {
			return -1
		}
		off += recHdr + int(sz)
		n++
	}
	return n
}

// bundleRef shares one bundle buffer among its unpacked records: the bundle
// is released when the last record is. One allocation per bundle, not per
// record.
type bundleRef struct {
	remaining atomic.Int32
	release   func()
}

func (b *bundleRef) dec() {
	if b.remaining.Add(-1) == 0 && b.release != nil {
		b.release()
	}
}

// unpackBundle splits bundle message b into per-record messages sharing b's
// buffer, handing each to put; b is released when the last record is. The
// record tags — not b.Tag — carry the logical epoch, so bundles may mix
// epochs freely. A malformed bundle is dropped whole: no record reaches put,
// b is released, and unpackBundle returns false.
func unpackBundle(b Message, put func(Message)) bool {
	n := countRecords(b.Data)
	if n <= 0 {
		b.Release()
		return n == 0
	}
	ref := &bundleRef{release: b.release}
	ref.remaining.Store(int32(n))
	forEachRecord(b.Data, func(tag uint32, data []byte) {
		put(Message{Peer: b.Peer, Tag: tag, Data: data, ref: ref})
	})
	return true
}

// CoalesceStats is a snapshot of the coalescer counters.
type CoalesceStats struct {
	MsgsCoalesced   int64 // messages shipped inside multi-record bundles
	CoalescedFrames int64 // multi-record bundles shipped
}

// emitFn ships one wire message (a plain message or a bundle tagged
// coalFlag) to dst, retrying until the send is accepted. done is called
// exactly once when the sender is finished with data; a nil done means
// "return data to the port's buffer cache" — the common case, kept nil so
// hot-path sends allocate no closure. drain lets a back-pressured emit pump
// the receive path (only safe from the layer's owner goroutine).
type emitFn func(worker, dst int, tag uint32, data []byte, done func(), drain bool)

// coalescer packs small per-destination messages into bundles. Only
// LCILayer's fused sends use it; FinishFused and Stop flush it.
//
// It is lazy: the first message for a destination is parked by reference (no
// copy), and a staging buffer is only allocated when a second message shows
// up before the first was flushed. A destination that only ever holds one
// message per flush window therefore ships it as a plain message with its
// original tag — the coalescer costs nothing on one-message-per-peer paths
// like Abelian's Exchange.
type coalescer struct {
	limit int // bundle payload cap: the fabric eager limit
	emit  emitFn
	// cache is the port's buffer cache. A message absorbed by copy goes back
	// to it at once (emitFn's nil-done convention). Staging bundles come
	// from it untracked — pool-like internals, like the LCI packet pool —
	// and return when the fabric accepts them: a bundle is eager by
	// construction, so the payload is copied on injection.
	cache *bufCache

	dests []coalDest

	msgsCoalesced   atomic.Int64
	coalescedFrames atomic.Int64
	recHist         *telemetry.Histogram // records per shipped bundle
}

// coalRec is one parked message held by reference.
type coalRec struct {
	tag  uint32
	data []byte
	done func()
}

type coalDest struct {
	mu     sync.Mutex
	one    coalRec // parked single (by reference), valid when hasOne
	hasOne bool
	buf    []byte // staging bundle, nil when none
	nrec   int
}

func newCoalescer(hosts, limit int, emit emitFn, cache *bufCache) *coalescer {
	return &coalescer{
		limit: limit,
		emit:  emit,
		cache: cache,
		dests: make([]coalDest, hosts),
	}
}

func (c *coalescer) stats() CoalesceStats {
	return CoalesceStats{
		MsgsCoalesced:   c.msgsCoalesced.Load(),
		CoalescedFrames: c.coalescedFrames.Load(),
	}
}

// add queues one message for dst. done fires once the coalescer (or the
// underlying send) is finished with data: immediately if the bytes are
// absorbed into a staging bundle, at send completion otherwise. add may
// block on fabric back-pressure (like a direct send would), but never on a
// receive — it is safe from any compute thread.
func (c *coalescer) add(worker, dst int, tag uint32, data []byte, done func()) {
	if recHdr+len(data) > c.limit {
		// Pass-through: oversized messages ship alone (and may go
		// rendezvous); bundling them would force an extra copy.
		c.emit(worker, dst, tag, data, done, false)
		return
	}
	d := &c.dests[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		switch {
		case d.buf != nil:
			if len(d.buf)+recHdr+len(data) <= c.limit {
				d.buf = appendRecord(d.buf, tag, data)
				d.nrec++
				c.fireDone(done, data)
				return
			}
			c.flushLocked(worker, d, dst, false)
		case !d.hasOne:
			d.one = coalRec{tag: tag, data: data, done: done}
			d.hasOne = true
			return
		case 2*recHdr+len(d.one.data)+len(data) <= c.limit:
			// Second message for dst: open a bundle and absorb the parked
			// single; the loop then appends the new message.
			d.buf = c.cache.get(c.limit)[:0]
			d.buf = appendRecord(d.buf, d.one.tag, d.one.data)
			c.fireDone(d.one.done, d.one.data)
			d.one, d.hasOne = coalRec{}, false
			d.nrec = 1
		default:
			// Cannot combine with the parked single: ship it, then park data.
			c.flushLocked(worker, d, dst, false)
		}
	}
}

// fireDone completes an absorbed-by-copy message: its bytes now live in the
// staging bundle, so the caller's buffer goes back to the cache.
func (c *coalescer) fireDone(done func(), data []byte) {
	if done != nil {
		done()
		return
	}
	c.cache.Free(data)
}

// flushLocked ships whatever is parked for d (bundle or single).
func (c *coalescer) flushLocked(worker int, d *coalDest, dst int, drain bool) {
	if d.buf != nil {
		buf, n := d.buf, d.nrec
		c.emit(worker, dst, coalFlag, buf, func() { c.cache.put(buf) }, drain)
		c.msgsCoalesced.Add(int64(n))
		c.coalescedFrames.Add(1)
		c.recHist.Observe(int64(n))
		d.buf, d.nrec = nil, 0
		return
	}
	if d.hasOne {
		c.emit(worker, dst, d.one.tag, d.one.data, d.one.done, drain)
		d.one, d.hasOne = coalRec{}, false
	}
}

// flushAll ships every parked message. Only the layer's owner goroutine may
// call it: a back-pressured flush pumps the receive path.
func (c *coalescer) flushAll(worker int) {
	for dst := range c.dests {
		d := &c.dests[dst]
		d.mu.Lock()
		c.flushLocked(worker, d, dst, true)
		d.mu.Unlock()
	}
}
