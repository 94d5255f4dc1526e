package comm

import (
	"bytes"
	"math"
	"testing"

	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
	"lcigraph/internal/telemetry"
)

func TestRecordRoundTrip(t *testing.T) {
	buf := make([]byte, 0, 256)
	type rec struct {
		tag  uint32
		data string
	}
	recs := []rec{{1, "alpha"}, {math.MaxUint32, ""}, {42, "omega-payload"}}
	for _, r := range recs {
		buf = appendRecord(buf, r.tag, []byte(r.data))
	}
	if n := countRecords(buf); n != len(recs) {
		t.Fatalf("countRecords = %d, want %d", n, len(recs))
	}
	i := 0
	forEachRecord(buf, func(tag uint32, data []byte) {
		if tag != recs[i].tag || string(data) != recs[i].data {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)",
				i, tag, data, recs[i].tag, recs[i].data)
		}
		i++
	})
}

func TestUnpackBundleReleasesOnce(t *testing.T) {
	buf := make([]byte, 0, 128)
	buf = appendRecord(buf, 1, []byte("aa"))
	buf = appendRecord(buf, 2, []byte("bb"))
	released := 0
	var msgs []Message
	unpackBundle(Message{
		Peer:    3,
		Tag:     mpiBundleTag,
		Data:    buf,
		release: func() { released++ },
	}, func(m Message) { msgs = append(msgs, m) })
	if len(msgs) != 2 {
		t.Fatalf("got %d records", len(msgs))
	}
	msgs[0].Release()
	if released != 0 {
		t.Fatal("bundle released before last record")
	}
	msgs[1].Release()
	if released != 1 {
		t.Fatalf("bundle released %d times", released)
	}
}

// malformedBundles are record framings a remote peer can put on the wire.
func malformedBundles() []struct {
	name string
	buf  []byte
} {
	valid := appendRecord(make([]byte, 0, 16), 7, []byte("ok"))
	return []struct {
		name string
		buf  []byte
	}{
		{"truncated header", []byte{1, 0, 0, 0, 5}},
		{"length past end", []byte{1, 0, 0, 0, 200, 0, 0, 0, 9}},
		{"valid record then 3-byte tail", append(valid, 0, 0, 0)},
	}
}

// TestUnpackMalformedBundle: a bundle whose record framing is broken is
// dropped whole — no record delivered, the bundle released exactly once.
func TestUnpackMalformedBundle(t *testing.T) {
	for _, tc := range malformedBundles() {
		t.Run(tc.name, func(t *testing.T) {
			released, delivered := 0, 0
			unpackBundle(Message{
				Peer:    1,
				Tag:     mpiBundleTag,
				Data:    tc.buf,
				release: func() { released++ },
			}, func(Message) { delivered++ })
			if delivered != 0 || released != 1 {
				t.Fatalf("delivered %d records, released %d times; want 0 and 1", delivered, released)
			}
		})
	}
}

// TestBadBundleCounted sends malformed MPI bundles to a probe layer, then
// one well-formed bundle: each bad one is counted once in
// lci_comm_bad_bundles_total, only the good record is delivered, and the
// receiver's tracker and the fabric's frames are conserved.
func TestBadBundleCounted(t *testing.T) {
	const tag = 9
	fab := fabric.New(2, fabric.TestProfile())
	w := mpi.NewWorldOn(fab, mpi.TestImpl(), mpi.ThreadFunneled)
	snd := w.Comm(0) // raw MPI: puts arbitrary bytes on the bundle tag
	rcv := NewProbeLayer(w.Comm(1))
	reg := telemetry.NewEnabled(1)
	rcv.SetTelemetry(reg)

	send := func(buf []byte) {
		req, err := snd.Isend(buf, 1, mpiBundleTag)
		if err == nil {
			err = snd.Wait(req)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	bad := malformedBundles()
	for _, tc := range bad {
		send(tc.buf)
	}
	// A well-formed bundle behind them proves the bad ones were consumed:
	// MPI does not let it overtake them.
	eff := epochs{}.next(tag)
	send(appendRecord(make([]byte, 0, 16), eff, []byte("good")))

	delivered := 0
	rcv.Exchange(tag, nil, []bool{true, false}, nil, func(peer int, data []byte) {
		if peer != 0 || string(data) != "good" {
			t.Errorf("delivered %q from %d, want \"good\" from 0", data, peer)
		}
		delivered++
	})
	if delivered != 1 || len(rcv.stash) != 0 || !rcv.recvq.Empty() {
		t.Fatalf("delivered %d, stashed %d tags, receive queue empty %v; want 1, 0, true",
			delivered, len(rcv.stash), rcv.recvq.Empty())
	}
	if n := reg.Counter(metricBadBundles).Value(); n != int64(len(bad)) {
		t.Fatalf("%s = %d, want %d", metricBadBundles, n, len(bad))
	}
	rcv.Stop()
	if n := rcv.Tracker().Current(); n != 0 {
		t.Fatalf("receiver holds %d tracked bytes", n)
	}
	if n := fab.FramesOutstanding(); n != 0 {
		t.Fatalf("%d frames still outstanding", n)
	}
}

// FuzzRecords: any byte string either frames as records — unpacked one
// delivery per record, re-encoding to the same bytes — or is dropped whole;
// either way the bundle is released exactly once and nothing panics.
func FuzzRecords(f *testing.F) {
	buf := make([]byte, 0, 256)
	buf = appendRecord(buf, 1, []byte("alpha"))
	buf = appendRecord(buf, math.MaxUint32, nil)
	buf = appendRecord(buf, 42, []byte("omega-payload"))
	f.Add(buf)
	for _, tc := range malformedBundles() {
		f.Add(tc.buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		n := countRecords(buf)
		released := 0
		var recs []Message
		unpackBundle(Message{Data: buf, release: func() { released++ }},
			func(m Message) { recs = append(recs, m) })
		if n < 0 {
			if len(recs) != 0 || released != 1 {
				t.Fatalf("malformed: delivered %d records, released %d times", len(recs), released)
			}
			return
		}
		if len(recs) != n {
			t.Fatalf("delivered %d records, countRecords says %d", len(recs), n)
		}
		again := make([]byte, 0, len(buf))
		for _, m := range recs {
			again = appendRecord(again, m.Tag, m.Data)
		}
		if !bytes.Equal(again, buf) {
			t.Fatalf("records re-encode to %x, want %x", again, buf)
		}
		for i := range recs {
			recs[i].Release()
		}
		if released != 1 {
			t.Fatalf("bundle released %d times", released)
		}
	})
}
