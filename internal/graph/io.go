package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary graph format: a small header followed by the CSR arrays, little
// endian. Used by cmd/graph-gen to persist inputs between runs.
//
//	magic "LCGR" | version u32 | n u64 | m u64 | weighted u32
//	offsets [n+1]u64 | edges [m]u32 | weights [m]u32 (if weighted)
const (
	magic   = "LCGR"
	version = 1
)

// Write serializes g to w.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	hdr := []uint64{version, uint64(g.N), uint64(len(g.Edges))}
	weighted := uint64(0)
	if g.Weights != nil {
		weighted = 1
	}
	hdr = append(hdr, weighted)
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, o := range g.Offsets {
		if err := binary.Write(bw, binary.LittleEndian, uint64(o)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Edges); err != nil {
		return err
	}
	if g.Weights != nil {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read deserializes a graph written by Write.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	m4 := make([]byte, 4)
	if _, err := io.ReadFull(br, m4); err != nil {
		return nil, err
	}
	if string(m4) != magic {
		return nil, fmt.Errorf("graph: bad magic %q", m4)
	}
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, err
		}
	}
	if hdr[0] != version {
		return nil, fmt.Errorf("graph: unsupported version %d", hdr[0])
	}
	if hdr[1] > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d vertices exceed the uint32 id space", hdr[1])
	}
	n, m, weighted := hdr[1], hdr[2], hdr[3] == 1
	g := &Graph{N: int(n)}
	var err error
	if g.Offsets, err = readChunked[int64](br, n+1); err != nil {
		return nil, err
	}
	if g.Edges, err = readChunked[uint32](br, m); err != nil {
		return nil, err
	}
	if weighted {
		if g.Weights, err = readChunked[uint32](br, m); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readChunked reads count little-endian values in chunks of at most 64 Ki,
// so a header that claims more data than the stream holds fails at EOF
// instead of allocating the claimed size up front.
func readChunked[T int64 | uint32](r io.Reader, count uint64) ([]T, error) {
	const chunk = 1 << 16
	out := make([]T, 0, min(count, chunk))
	for rest := count; rest > 0; {
		k := min(rest, chunk)
		buf := make([]T, k)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		rest -= k
	}
	return out, nil
}
