package netfabric

import (
	"bytes"
	"testing"
)

// dataSeeds are encodeData outputs covering an unstamped packet, a stamped
// one and a middle fragment of a multi-datagram message.
func dataSeeds() [][]byte {
	var seeds [][]byte
	add := func(src int, seq, fragOff, msgLen uint32, chunk []byte, stamp bool) {
		b := make([]byte, dataHdrLen+len(chunk))
		n := encodeData(b, src, seq, fragOff, msgLen, 0x1122334455667788, 0x99aabbccddeeff00, chunk)
		if stamp {
			stampAck(b[:n], seq+3, 1<<40|7)
		}
		seeds = append(seeds, b[:n])
	}
	add(1, 7, 0, 5, []byte("hello"), false)
	add(1, 7, 0, 5, []byte("hello"), true)
	add(3, 1<<31, 1364, 4000, bytes.Repeat([]byte{0xab}, 100), true)
	add(0, 0, 0, 0, nil, false)
	return seeds
}

// FuzzDecodeData: decodeData never panics, and every datagram it accepts
// re-encodes, through encodeData and stampAck, to exactly its own bytes —
// so no field of a DATA packet is silently ignored.
func FuzzDecodeData(f *testing.F) {
	for _, s := range dataSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		d, ok := decodeData(b)
		if !ok {
			return
		}
		again := make([]byte, dataHdrLen+len(d.chunk))
		n := encodeData(again, d.src, d.seq, d.fragOff, d.msgLen, d.header, d.meta, d.chunk)
		if d.hasAck {
			stampAck(again[:n], d.pgAck, d.pgCredit)
		}
		if !bytes.Equal(again[:n], b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again[:n])
		}
	})
}

// FuzzDecodeAck: decodeAck never panics, and every datagram it accepts
// re-encodes to exactly its own bytes.
func FuzzDecodeAck(f *testing.F) {
	var b [ackPktLen]byte
	f.Add(b[:encodeAck(b[:], 2, 99, 1<<33|5)])
	f.Fuzz(func(t *testing.T, b []byte) {
		src, cum, credit, ok := decodeAck(b)
		if !ok {
			return
		}
		var again [ackPktLen]byte
		n := encodeAck(again[:], src, cum, credit)
		if !bytes.Equal(again[:n], b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again[:n])
		}
	})
}
