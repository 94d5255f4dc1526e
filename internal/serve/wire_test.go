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

// encodeLists encodes an adjacency reply from explicit neighbor lists.
func encodeLists(alloc func(int) []byte, qid uint32, adj [][]uint32) []byte {
	return encodeAdjRep(alloc, qid, len(adj), func(i int) []uint32 { return adj[i] })
}

// lists copies an in-place reply view out into explicit neighbor lists.
func lists(rep adjRep) [][]uint32 {
	flat := rep.appendNeighbors(nil)
	adj := make([][]uint32, rep.len())
	for i := range adj {
		d := rep.deg(i)
		adj[i], flat = flat[:d], flat[d:]
	}
	return adj
}

// TestAdjWireGoldenBytes pins the inter-rank sub-query layouts byte for
// byte: every rank of a job must agree on them, so a change here is a
// protocol change, not a refactor.
func TestAdjWireGoldenBytes(t *testing.T) {
	const qid = 0x00abcdef
	verts := []uint32{1, 2, 0x01020304}
	req := encodeAdjReq(heapAlloc, qid, len(verts), func(i int) uint32 { return verts[i] })
	wantReq := []byte{
		0xef, 0xcd, 0xab, 0x00, // qid
		3, 0, 0, 0, // vertex count
		1, 0, 0, 0,
		2, 0, 0, 0,
		0x04, 0x03, 0x02, 0x01,
	}
	if !bytes.Equal(req, wantReq) {
		t.Fatalf("request\n got %x\nwant %x", req, wantReq)
	}
	rep := encodeLists(heapAlloc, qid, [][]uint32{{4, 5}, nil, {0x0a0b0c0d}})
	wantRep := []byte{
		0xef, 0xcd, 0xab, 0x00, // qid
		3, 0, 0, 0, // vertex count
		2, 0, 0, 0, // degrees
		0, 0, 0, 0,
		1, 0, 0, 0,
		4, 0, 0, 0, // neighbors, flat
		5, 0, 0, 0,
		0x0d, 0x0c, 0x0b, 0x0a,
	}
	if !bytes.Equal(rep, wantRep) {
		t.Fatalf("reply\n got %x\nwant %x", rep, wantRep)
	}

	gotQid, view, err := parseAdjReq(wantReq)
	if err != nil || gotQid != qid || view.len() != 3 || view.vert(2) != 0x01020304 {
		t.Fatalf("parseAdjReq = %#x, %d vertices, %v", gotQid, view.len(), err)
	}
	gotQid, rv, err := parseAdjRep(wantRep, 1<<32)
	if err != nil || gotQid != qid || rv.len() != 3 || len(rv.nbrs) != 12 || rv.deg(0) != 2 {
		t.Fatalf("parseAdjRep = %#x, %d vertices, %v", gotQid, rv.len(), err)
	}
	if _, _, err := parseAdjRep(wantRep, 0x0a0b0c0d); err == nil {
		t.Fatal("parseAdjRep accepted a neighbor at the graph size")
	}
}

// FuzzDecodeAdjReq: parseAdjReq never panics on a peer's payload, and every
// payload it accepts re-encodes to exactly its own bytes.
func FuzzDecodeAdjReq(f *testing.F) {
	verts := []uint32{1, 2, 3, 1 << 31}
	f.Add(encodeAdjReq(heapAlloc, 0xbeef, len(verts), func(i int) uint32 { return verts[i] }))
	f.Add(encodeAdjReq(heapAlloc, 0, 0, nil))
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0x3f})
	f.Fuzz(func(t *testing.T, b []byte) {
		qid, req, err := parseAdjReq(b)
		if err != nil {
			return
		}
		if again := encodeAdjReq(heapAlloc, qid, req.len(), req.vert); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again)
		}
	})
}

// FuzzDecodeAdjRep: parseAdjRep never panics on a peer's payload, every
// payload it accepts re-encodes to exactly its own bytes, and it accepts
// only neighbor ids below the graph size it is given.
func FuzzDecodeAdjRep(f *testing.F) {
	f.Add(encodeLists(heapAlloc, 0xbeef, [][]uint32{{4, 5}, nil, {6}}), uint32(7))
	f.Add(encodeLists(heapAlloc, 7, nil), uint32(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, ^uint32(0))
	f.Fuzz(func(t *testing.T, b []byte, globalN uint32) {
		qid, rep, err := parseAdjRep(b, int(globalN))
		if err != nil {
			return
		}
		adj := lists(rep)
		for _, l := range adj {
			for _, u := range l {
				if u >= globalN {
					t.Fatalf("accepted neighbor %d of a %d-vertex graph", u, globalN)
				}
			}
		}
		if again := encodeLists(heapAlloc, qid, adj); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again)
		}
	})
}
