package serve

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Client protocol: length-prefixed frames over TCP, all integers
// little-endian. A request is
//
//	u32 frameLen | u32 reqid | u8 op | u32 a | u32 b
//
// where reqid is a client-chosen correlation id (echoed verbatim, so one
// connection can pipeline many concurrent requests) and (op, a, b) is the
// query: KHop(src=a, k=b), Dist(src=a, dst=b), PPR(src=a, topN=b).
// A response is
//
//	u32 frameLen | u32 reqid | u8 status | payload
//
// with status OK (op-specific payload), Shed (u32 retry-after in
// milliseconds — the client-visible face of the admission-control credit
// machinery, the serving analogue of the transport's retriable
// ErrResource), or Error (UTF-8 message).

// Query operations.
const (
	OpKHop uint8 = 1 // a = source vertex, b = hop count; result u32 count
	OpDist uint8 = 2 // a = source, b = destination; result u32 hops (^0 = unreachable)
	OpPPR  uint8 = 3 // a = source, b = topN; result u32 n | n x (u32 vertex, u64 scoreBits)
)

// Response status codes.
const (
	StatusOK    uint8 = 0
	StatusShed  uint8 = 1 // overloaded: retry after the indicated delay
	StatusError uint8 = 2
)

// Unreachable is the Dist result for a destination the source cannot reach.
const Unreachable = ^uint32(0)

// maxFrame bounds a client frame; anything larger is a protocol error.
const maxFrame = 1 << 20

// Query is one client request's operation triple.
type Query struct {
	Op   uint8
	A, B uint32
}

// OpName returns the metric/report label for an operation.
func OpName(op uint8) string {
	switch op {
	case OpKHop:
		return "khop"
	case OpDist:
		return "dist"
	case OpPPR:
		return "ppr"
	}
	return fmt.Sprintf("op%d", op)
}

// WriteRequest frames one request onto w.
func WriteRequest(w io.Writer, reqid uint32, q Query) error {
	var b [4 + 13]byte
	binary.LittleEndian.PutUint32(b[0:], 13)
	binary.LittleEndian.PutUint32(b[4:], reqid)
	b[8] = q.Op
	binary.LittleEndian.PutUint32(b[9:], q.A)
	binary.LittleEndian.PutUint32(b[13:], q.B)
	_, err := w.Write(b[:])
	return err
}

// ReadRequest parses the next request frame from r.
func ReadRequest(r io.Reader) (reqid uint32, q Query, err error) {
	body, err := readFrame(r)
	if err != nil {
		return 0, Query{}, err
	}
	if len(body) != 13 {
		return 0, Query{}, fmt.Errorf("serve: request frame is %d bytes, want 13", len(body))
	}
	reqid = binary.LittleEndian.Uint32(body)
	q.Op = body[4]
	q.A = binary.LittleEndian.Uint32(body[5:])
	q.B = binary.LittleEndian.Uint32(body[9:])
	return reqid, q, nil
}

// EncodeResponse frames one response (ready for a single Write).
func EncodeResponse(reqid uint32, status uint8, payload []byte) []byte {
	b := make([]byte, 4+5+len(payload))
	binary.LittleEndian.PutUint32(b[0:], uint32(5+len(payload)))
	binary.LittleEndian.PutUint32(b[4:], reqid)
	b[8] = status
	copy(b[9:], payload)
	return b
}

// ReadResponse parses the next response frame from r.
func ReadResponse(r io.Reader) (reqid uint32, status uint8, payload []byte, err error) {
	body, err := readFrame(r)
	if err != nil {
		return 0, 0, nil, err
	}
	if len(body) < 5 {
		return 0, 0, nil, fmt.Errorf("serve: response frame is %d bytes, want >= 5", len(body))
	}
	return binary.LittleEndian.Uint32(body), body[4], body[5:], nil
}

// readFrame reads one length-prefixed frame body.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("serve: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ShedPayload encodes/decodes the Shed status payload.
func ShedPayload(retryAfterMs uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], retryAfterMs)
	return b[:]
}

// RetryAfterMs extracts the retry hint from a Shed payload (0 if absent).
func RetryAfterMs(payload []byte) uint32 {
	if len(payload) < 4 {
		return 0
	}
	return binary.LittleEndian.Uint32(payload)
}

// Inter-rank sub-query wire format, carried on the reserved serve tags
// (cluster.ServeTagLo..): an adjacency request names the global vertices
// whose out-edges the owning rank must return; the reply mirrors the
// request order as a degree array plus a flat neighbor array (a one-round
// CSR). Both carry the 24-bit query id that multiplexes concurrent
// in-flight queries, mirroring the tracing msgid encoding.

// encodeAdjReq builds an adjacency request for n vertices, vert(i) naming
// the i-th, in a layer buffer returned by alloc.
func encodeAdjReq(alloc func(int) []byte, qid uint32, n int, vert func(i int) uint32) []byte {
	b := alloc(8 + 4*n)
	binary.LittleEndian.PutUint32(b[0:], qid)
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[8+4*i:], vert(i))
	}
	return b
}

// adjReq is an adjacency request's vertex array, viewed in place in the
// message buffer: valid only until the message is released.
type adjReq []byte

func (r adjReq) len() int          { return len(r) / 4 }
func (r adjReq) vert(i int) uint32 { return binary.LittleEndian.Uint32(r[4*i:]) }

// parseAdjReq validates an adjacency request without copying it.
func parseAdjReq(data []byte) (qid uint32, req adjReq, err error) {
	if len(data) < 8 {
		return 0, nil, fmt.Errorf("serve: adj request %d bytes", len(data))
	}
	qid = binary.LittleEndian.Uint32(data)
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if len(data) != 8+4*n {
		return 0, nil, fmt.Errorf("serve: adj request %d bytes for %d vertices", len(data), n)
	}
	return qid, adjReq(data[8:]), nil
}

// encodeAdjRep builds an adjacency reply for n vertices, adj(i) listing the
// i-th one's neighbors: qid, vertex count, the per-vertex degrees, then the
// flat neighbor array. adj is called twice per vertex (sizing, then
// writing) and must return the same list both times.
func encodeAdjRep(alloc func(int) []byte, qid uint32, n int, adj func(i int) []uint32) []byte {
	total := 0
	for i := 0; i < n; i++ {
		total += len(adj(i))
	}
	b := alloc(8 + 4*n + 4*total)
	binary.LittleEndian.PutUint32(b[0:], qid)
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
	off := 8 + 4*n
	for i := 0; i < n; i++ {
		l := adj(i)
		binary.LittleEndian.PutUint32(b[8+4*i:], uint32(len(l)))
		for _, u := range l {
			binary.LittleEndian.PutUint32(b[off:], u)
			off += 4
		}
	}
	return b
}

// adjRep is an adjacency reply viewed in place in the message buffer: valid
// only until the message is released.
type adjRep struct{ degs, nbrs []byte }

func (r adjRep) len() int      { return len(r.degs) / 4 }
func (r adjRep) deg(i int) int { return int(binary.LittleEndian.Uint32(r.degs[4*i:])) }

// appendNeighbors appends the reply's flat neighbor array to dst.
func (r adjRep) appendNeighbors(dst []uint32) []uint32 {
	for off := 0; off < len(r.nbrs); off += 4 {
		dst = append(dst, binary.LittleEndian.Uint32(r.nbrs[off:]))
	}
	return dst
}

// parseAdjRep validates an adjacency reply without copying it: the layout,
// and that every neighbor id is below globalN (the machines index dense
// state by global id, and the reply is remote input).
func parseAdjRep(data []byte, globalN int) (qid uint32, rep adjRep, err error) {
	if len(data) < 8 {
		return 0, adjRep{}, fmt.Errorf("serve: adj reply %d bytes", len(data))
	}
	qid = binary.LittleEndian.Uint32(data)
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if len(data) < 8+4*n {
		return 0, adjRep{}, fmt.Errorf("serve: adj reply %d bytes for %d vertices", len(data), n)
	}
	rep.degs = data[8 : 8+4*n]
	total := 0
	for i := 0; i < n; i++ {
		total += rep.deg(i)
	}
	if len(data) != 8+4*n+4*total {
		return 0, adjRep{}, fmt.Errorf("serve: adj reply %d bytes, want %d", len(data), 8+4*n+4*total)
	}
	rep.nbrs = data[8+4*n:]
	for off := 0; off < len(rep.nbrs); off += 4 {
		if u := binary.LittleEndian.Uint32(rep.nbrs[off:]); int(u) >= globalN {
			return 0, adjRep{}, fmt.Errorf("serve: adj reply names vertex %d of %d", u, globalN)
		}
	}
	return qid, rep, nil
}

// Control messages on the drain tag.
const ctrlStop uint8 = 1

// encodeCtrl builds a one-byte control payload.
func encodeCtrl(alloc func(int) []byte, kind uint8) []byte {
	b := alloc(1)
	b[0] = kind
	return b
}
