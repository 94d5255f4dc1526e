package incident

import (
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"
)

// frame frames a header and payload as Recorder.post does.
func frame(h wireMsg, payload []byte) []byte {
	hb, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(hb)))
	return append(append(b, hb...), payload...)
}

// FuzzIncidentWire: a peer's incident frame, however malformed, never
// panics rank 0's pump while a gather is open — in particular a chunk
// count beyond maxEvidenceChunks is dropped before it sizes an allocation.
func FuzzIncidentWire(f *testing.F) {
	const id = "incident-fuzz"
	f.Add(frame(wireMsg{Kind: "evid", ID: id, Rank: 1, Seq: 0, Total: 2}, []byte("part")))
	f.Add(frame(wireMsg{Kind: "evid", ID: id, Rank: 3, Seq: 0, Total: 1}, nil))
	f.Add(frame(wireMsg{Kind: "req", Trigger: Trigger{Kind: "manual", Rank: 2}}, nil))
	f.Add(frame(wireMsg{Kind: "go", ID: id}, nil))
	r := New(Options{Rank: 0, Ranks: 4, Dir: f.TempDir(), ProfilePeriod: -1})
	now := time.Now()
	f.Fuzz(func(t *testing.T, b []byte) {
		r.pp.cur = &gather{
			id: id, deadline: now.Add(time.Hour),
			parts: map[int][][]byte{}, got: map[int]int{}, blobs: map[int][]byte{},
		}
		h, payload, ok := decodeWire(b)
		if !ok {
			return
		}
		r.handleWire(h, payload, now)
		for rank, parts := range r.pp.cur.parts {
			if len(parts) > maxEvidenceChunks {
				t.Fatalf("rank %d: %d chunk slots allocated, cap %d", rank, len(parts), maxEvidenceChunks)
			}
		}
	})
}
