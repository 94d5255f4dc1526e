package serve

import (
	"bytes"
	"testing"
)

func heapAlloc(n int) []byte { return make([]byte, n) }

// FuzzReadRequest: ReadRequest never panics on a client's byte stream, and
// every frame it accepts re-encodes, through WriteRequest, to exactly the
// bytes it consumed.
func FuzzReadRequest(f *testing.F) {
	for _, q := range []Query{{OpKHop, 5, 2}, {OpDist, 0, ^uint32(0)}, {OpPPR, 1 << 20, 8}} {
		var b bytes.Buffer
		if err := WriteRequest(&b, 0xdeadbeef, q); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{13, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		reqid, q, err := ReadRequest(r)
		if err != nil {
			return
		}
		consumed := b[:len(b)-r.Len()]
		var again bytes.Buffer
		if err := WriteRequest(&again, reqid, q); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("accepted %x re-encodes to %x", consumed, again.Bytes())
		}
	})
}

// FuzzDecodeAdjReq: decodeAdjReq never panics on a peer's payload, and every
// payload it accepts re-encodes to exactly its own bytes.
func FuzzDecodeAdjReq(f *testing.F) {
	f.Add(encodeAdjReq(heapAlloc, 0xbeef, []uint32{1, 2, 3, 1 << 31}))
	f.Add(encodeAdjReq(heapAlloc, 0, nil))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f})
	f.Fuzz(func(t *testing.T, b []byte) {
		qid, verts, err := decodeAdjReq(b)
		if err != nil {
			return
		}
		if again := encodeAdjReq(heapAlloc, qid, verts); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again)
		}
	})
}

// FuzzDecodeAdjRep: decodeAdjRep never panics on a peer's payload, and every
// payload it accepts re-encodes to exactly its own bytes.
func FuzzDecodeAdjRep(f *testing.F) {
	f.Add(encodeAdjRep(heapAlloc, 0xbeef, [][]uint32{{4, 5}, nil, {6}}))
	f.Add(encodeAdjRep(heapAlloc, 7, nil))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		qid, adj, err := decodeAdjRep(b)
		if err != nil {
			return
		}
		if again := encodeAdjRep(heapAlloc, qid, adj); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again)
		}
	})
}
