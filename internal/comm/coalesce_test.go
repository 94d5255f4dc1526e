package comm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/telemetry"
)

func TestRecordRoundTrip(t *testing.T) {
	buf := make([]byte, 0, 256)
	type rec struct {
		tag  uint32
		data string
	}
	recs := []rec{{1, "alpha"}, {coalFlag - 1, ""}, {42, "omega-payload"}}
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
		Tag:     coalFlag,
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
				Tag:     coalFlag,
				Data:    tc.buf,
				release: func() { released++ },
			}, func(Message) { delivered++ })
			if delivered != 0 || released != 1 {
				t.Fatalf("delivered %d records, released %d times; want 0 and 1", delivered, released)
			}
		})
	}
}

// TestBadBundleCounted sends malformed bundles to an LCI layer: each is
// counted once in lci_comm_bad_bundles_total, nothing is delivered, and the
// receiver's tracker and the fabric's frames are conserved.
func TestBadBundleCounted(t *testing.T) {
	const tag = 250
	fab := fabric.New(2, fabric.TestProfile())
	reg := telemetry.NewEnabled(1)
	snd := NewLCILayer(fab.Endpoint(0), lci.Options{})
	rcv := NewLCILayer(fab.Endpoint(1), lci.Options{Telemetry: reg})
	bad := malformedBundles()
	for _, tc := range bad {
		buf := snd.AllocBuf(len(tc.buf))
		copy(buf, tc.buf)
		snd.emit(snd.workers[0], 1, coalFlag, buf, nil, true)
	}
	// A well-formed message behind them proves the bad ones were consumed.
	buf := snd.AllocBuf(8)
	snd.PostTag(1, tag, buf)
	m := recvTagWait(t, rcv, tag)
	m.Release()
	if m, ok := rcv.RecvTag(tag); ok {
		t.Fatalf("unexpected message from %d", m.Peer)
	}
	if n := reg.Counter(metricBadBundles).Value(); n != int64(len(bad)) {
		t.Fatalf("%s = %d, want %d", metricBadBundles, n, len(bad))
	}
	snd.Stop()
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
	buf = appendRecord(buf, coalFlag-1, nil)
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

// TestFusedCoalescing drives many small per-peer messages through one fused
// epoch of the LCI layer: they must arrive intact (bundled on the wire,
// unpacked before onRecv) and every pooled frame must return to the fabric.
func TestFusedCoalescing(t *testing.T) {
	const p = 3
	const perPeer = 40
	fab := fabric.New(p, fabric.TestProfile())
	layers := make([]*LCILayer, p)
	for r := 0; r < p; r++ {
		layers[r] = NewLCILayer(fab.Endpoint(r), lci.Options{})
	}

	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			l := layers[r]
			eff := l.BeginFused(9)
			for peer := 0; peer < p; peer++ {
				if peer == r {
					continue
				}
				for i := 0; i < perPeer; i++ {
					buf := l.AllocBuf(8)
					binary.LittleEndian.PutUint64(buf, uint64(r)<<32|uint64(i))
					l.SendFused(i, peer, eff, buf)
				}
			}
			seen := make(map[uint64]bool)
			l.FinishFusedCount(eff, (p-1)*perPeer, func(peer int, data []byte) {
				v := binary.LittleEndian.Uint64(data)
				if int(v>>32) != peer {
					t.Errorf("rank %d: message %x from peer %d", r, v, peer)
				}
				if seen[v] {
					t.Errorf("rank %d: duplicate message %x", r, v)
				}
				seen[v] = true
			})
		}(r)
	}
	wg.Wait()

	coalesced := false
	var stopWg sync.WaitGroup
	for _, l := range layers {
		if s := l.CoalesceStats(); s.CoalescedFrames > 0 && s.MsgsCoalesced > s.CoalescedFrames {
			coalesced = true
		}
		stopWg.Add(1)
		go func(l *LCILayer) { defer stopWg.Done(); l.Stop() }(l)
	}
	stopWg.Wait()
	if !coalesced {
		t.Fatal("no messages were coalesced")
	}
	if n := fab.FramesOutstanding(); n != 0 {
		t.Fatalf("%d frames still outstanding", n)
	}
}

// TestStreamSendsDirect runs concurrent sender threads with mixed tags and
// sizes spanning the eager limit through an LCI stream. Every SendMsg must
// leave as exactly one SEND-ENQ: no bundle is ever shipped, each message
// under the eager limit is one eager frame carrying exactly its payload, and
// each larger one is one rendezvous RTS answered by one RTR. Payloads arrive
// intact and every pooled frame returns to the fabric after Stop.
func TestStreamSendsDirect(t *testing.T) {
	fab := fabric.New(2, fabric.TestProfile())
	reg := telemetry.NewEnabled(0)
	snd := NewLCIStream(fab.Endpoint(0), lci.Options{Telemetry: reg})
	rcv := NewLCIStream(fab.Endpoint(1), lci.Options{})

	const threads, per = 3, 50
	// About one message in six exceeds TestProfile's 1 KiB eager limit.
	size := func(th, i int) int { return 16 + (th*per+i)*37%1200 }
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				buf := snd.AllocBuf(size(th, i))
				for j := range buf {
					buf[j] = byte(th)
				}
				snd.SendMsg(th, 1, uint32(th), buf)
			}
		}(th)
	}
	var got [threads]int
	for n := 0; n < threads*per; {
		snd.RecvMsg() // sender-side pump: reaps completed sends
		m, ok := rcv.RecvMsg()
		if !ok {
			runtime.Gosched()
			continue
		}
		th := int(m.Tag)
		for _, by := range m.Data {
			if by != byte(th) {
				t.Fatalf("corrupt payload for tag %d", th)
			}
		}
		got[th] += len(m.Data)
		m.Release()
		n++
	}
	wg.Wait()
	snd.Stop()
	rcv.Stop()

	var eager, rdv, eagerBytes int64
	for th := 0; th < threads; th++ {
		sent := 0
		for i := 0; i < per; i++ {
			n := size(th, i)
			sent += n
			if n <= snd.ep.EagerLimit() {
				eager++
				eagerBytes += int64(n)
			} else {
				rdv++
			}
		}
		if got[th] != sent {
			t.Fatalf("tag %d: got %d bytes, sent %d", th, got[th], sent)
		}
	}
	if eager == 0 || rdv == 0 {
		t.Fatalf("sizes do not span the eager limit: %d eager, %d rendezvous", eager, rdv)
	}
	if snap := reg.Snapshot(); snap.Counter(MetricBundles) != 0 || snap.Counter(MetricMsgsCoalesced) != 0 {
		t.Errorf("stream shipped %d bundles holding %d messages, want none",
			snap.Counter(MetricBundles), snap.Counter(MetricMsgsCoalesced))
	}
	ss, rs := fab.Endpoint(0).Stats(), fab.Endpoint(1).Stats()
	if ss.SendFrames != eager+rdv {
		t.Errorf("sender shipped %d frames, want %d eager + %d RTS", ss.SendFrames, eager, rdv)
	}
	if ss.SendBytes != eagerBytes {
		t.Errorf("sender frames carried %d bytes, want the %d eager payload bytes", ss.SendBytes, eagerBytes)
	}
	if rs.SendFrames != rdv {
		t.Errorf("receiver shipped %d frames, want %d RTR", rs.SendFrames, rdv)
	}
	if n := fab.FramesOutstanding(); n != 0 {
		t.Fatalf("%d frames still outstanding", n)
	}
}
