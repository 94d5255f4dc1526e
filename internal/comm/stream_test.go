package comm

import (
	"runtime"
	"sync"
	"testing"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
	"lcigraph/internal/netfabric"
)

func makeStreams(t testing.TB, kind string, p int) ([]Stream, func()) {
	t.Helper()
	fab := fabric.New(p, fabric.TestProfile())
	streams := make([]Stream, p)
	switch kind {
	case "lci":
		for r := 0; r < p; r++ {
			streams[r] = NewLCIStream(fab.Endpoint(r), lci.Options{})
		}
	case "mpi-probe":
		w := mpi.NewWorldOn(fab, mpi.TestImpl(), mpi.ThreadMultiple)
		for r := 0; r < p; r++ {
			streams[r] = NewMPIStream(w.Comm(r))
		}
	default:
		t.Fatalf("unknown stream kind %q", kind)
	}
	return streams, func() {
		var wg sync.WaitGroup
		for _, s := range streams {
			wg.Add(1)
			go func(s Stream) { defer wg.Done(); s.Stop() }(s)
		}
		wg.Wait()
	}
}

func streamKindsTest() []string { return []string{"lci", "mpi-probe"} }

func TestStreamBasicSendRecv(t *testing.T) {
	for _, kind := range streamKindsTest() {
		t.Run(kind, func(t *testing.T) {
			streams, stop := makeStreams(t, kind, 2)
			defer stop()
			buf := streams[0].AllocBuf(5)
			copy(buf, "hello")
			streams[0].SendMsg(0, 1, 42, buf)
			for {
				m, ok := streams[1].RecvMsg()
				if !ok {
					runtime.Gosched()
					continue
				}
				if m.Peer != 0 || m.Tag != 42 || string(m.Data) != "hello" {
					t.Fatalf("message = %+v", m)
				}
				m.Release()
				break
			}
		})
	}
}

// TestStreamManyThreadsManySizes: concurrent sender threads, mixed
// eager/rendezvous sizes, exact delivery.
func TestStreamManyThreadsManySizes(t *testing.T) {
	for _, kind := range streamKindsTest() {
		t.Run(kind, func(t *testing.T) {
			streams, stop := makeStreams(t, kind, 2)
			defer stop()
			const threads, per = 4, 60
			var wg sync.WaitGroup
			var sentBytes [threads]int
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						size := (th*per+i)%2000 + 1 // spans the eager limit
						buf := streams[0].AllocBuf(size)
						for j := range buf {
							buf[j] = byte(th)
						}
						streams[0].SendMsg(th, 1, uint32(th), buf)
						sentBytes[th] += size
					}
				}(th)
			}
			gotBytes := make([]int, threads)
			for n := 0; n < threads*per; {
				// Pump the sender side too: in Gemini every host's receive
				// loop drives progress; a sender that stops calling into
				// the library would strand its rendezvous handshakes.
				streams[0].RecvMsg()
				m, ok := streams[1].RecvMsg()
				if !ok {
					runtime.Gosched()
					continue
				}
				th := int(m.Tag)
				for _, by := range m.Data {
					if by != byte(th) {
						t.Fatalf("corrupt payload from thread %d", th)
					}
				}
				gotBytes[th] += len(m.Data)
				m.Release()
				n++
			}
			wg.Wait()
			for th := 0; th < threads; th++ {
				if gotBytes[th] != sentBytes[th] {
					t.Fatalf("thread %d: got %d bytes, sent %d", th, gotBytes[th], sentBytes[th])
				}
			}
		})
	}
}

// TestStreamStopDrains: Stop returns only after in-flight sends are
// reusable, and delivered data stays intact.
func TestStreamStopDrains(t *testing.T) {
	for _, kind := range streamKindsTest() {
		t.Run(kind, func(t *testing.T) {
			streams, stopAll := makeStreams(t, kind, 2)
			big := streams[0].AllocBuf(5000) // rendezvous-size
			for i := range big {
				big[i] = 7
			}
			streams[0].SendMsg(0, 1, 1, big)
			done := make(chan struct{})
			go func() {
				for {
					streams[0].RecvMsg() // sender-side progress pump
					if m, ok := streams[1].RecvMsg(); ok {
						if len(m.Data) != 5000 {
							t.Errorf("size %d", len(m.Data))
						}
						m.Release()
						close(done)
						return
					}
					runtime.Gosched()
				}
			}()
			<-done
			stopAll()
		})
	}
}

func TestStreamTrackerAccounting(t *testing.T) {
	streams, stop := makeStreams(t, "lci", 2)
	defer stop()
	buf := streams[0].AllocBuf(100)
	if streams[0].Tracker().Current() < 100 {
		t.Fatal("alloc not tracked")
	}
	streams[0].SendMsg(0, 1, 0, buf)
	// After delivery + release, sender current returns to ~0.
	for {
		if m, ok := streams[1].RecvMsg(); ok {
			m.Release()
			break
		}
		runtime.Gosched()
	}
	for streams[0].Tracker().Current() != 0 {
		if _, ok := streams[0].RecvMsg(); !ok { // reaps pending sends
			runtime.Gosched()
		}
	}
}

// TestLCIStreamDoorbell: an LCIStream offers a doorbell only where its
// server parks (the simulated fabric), so over netfabric, whose server
// polls, Gemini's receive loop keeps yielding. The layer keeps its doorbell
// on both.
func TestLCIStreamDoorbell(t *testing.T) {
	fab := fabric.New(1, fabric.TestProfile())
	s := NewLCIStream(fab.Endpoint(0), lci.Options{})
	defer s.Stop()
	if s.Arrivals() == nil {
		t.Error("sim stream: no doorbell")
	}
	provs, err := netfabric.NewLoopbackGroup(2, netfabric.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range provs {
		defer pr.Close()
	}
	u := NewLCIStream(provs[0], lci.Options{})
	defer u.Stop()
	if u.Arrivals() != nil {
		t.Error("udp stream: doorbell, want nil")
	}
	l := NewLCILayer(provs[1], lci.Options{})
	defer l.Stop()
	if l.Arrivals() == nil {
		t.Error("udp layer: no doorbell")
	}
}

// TestStreamSendsDirect runs concurrent sender threads with mixed tags and
// sizes spanning the eager limit through an LCI stream. Every SendMsg must
// leave as exactly one SEND-ENQ: each message under the eager limit is one
// eager frame carrying exactly its payload, and each larger one is one
// rendezvous RTS answered by one RTR. Payloads arrive
// intact and every pooled frame returns to the fabric after Stop.
func TestStreamSendsDirect(t *testing.T) {
	fab := fabric.New(2, fabric.TestProfile())
	snd := NewLCIStream(fab.Endpoint(0), lci.Options{})
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
