package comm

import (
	"encoding/binary"
	"sync/atomic"
)

// This file holds the record framing of the probe layer's MPI bundles: the
// buffered network layer packs many small logical messages into one
// near-eager-limit MPI message, so the per-message MPI cost (a send, a
// probe, a matching pass) is paid once per bundle instead of once per
// message.

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
