package netfabric

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"lcigraph/internal/fabric"
	"lcigraph/internal/tracing"
)

// tsBuf is a goroutine-safe dump sink: housekeep dumps from the reader
// goroutine while the test polls the contents.
type tsBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *tsBuf) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *tsBuf) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// waitStall polls until p's stall counter reaches n or the deadline passes.
func waitStall(t *testing.T, p *Provider, n int64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if p.stallWarns.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stall detector did not fire within %v (stalls=%d)", d, p.stallWarns.Load())
}

// TestCreditStallWarning starves a flow of receiver credit (the peer never
// releases its frames) and expects exactly one structured warning per
// episode: the stalls counter bumps, and the flight-recorder dump carries
// the credit-stall event trail.
func TestCreditStallWarning(t *testing.T) {
	tr := tracing.New(0, 512)
	var dump tsBuf
	tr.SetDumpWriter(&dump)
	a, _ := pair(t, Config{
		Credits:            4,
		Window:             64,
		CreditStallTimeout: 20 * time.Millisecond,
		Tracer:             tr,
	})

	// Exhaust the peer's advertised credit; b never polls, so nothing is
	// ever consumed and no credit refresh can arrive.
	for i := 0; ; i++ {
		if err := a.Send(1, uint64(i), 0, []byte("m")); err == fabric.ErrResource {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if i > 64 {
			t.Fatal("credit quota never exhausted")
		}
	}

	waitStall(t, a, 1, 5*time.Second)
	out := dump.String()
	for _, want := range []string{"credit-stall", "stall-warn", "zero send credit"} {
		if !strings.Contains(out, want) {
			t.Errorf("flight dump missing %q:\n%s", want, out)
		}
	}

	// One warning per episode: the latch must hold while the starvation
	// persists.
	time.Sleep(60 * time.Millisecond)
	if n := a.stallWarns.Load(); n != 1 {
		t.Fatalf("stalls = %d after continued starvation, want 1 (episode latch broken)", n)
	}
}

// TestAckStallWarning kills the peer's socket so retransmissions burn
// through StallRTOs attempts with no ack progress, and expects the no-ack
// warning plus retransmit events in the ring.
func TestAckStallWarning(t *testing.T) {
	tr := tracing.New(0, 512)
	var dump tsBuf
	tr.SetDumpWriter(&dump)
	a, b := pair(t, Config{
		RTO:       5 * time.Millisecond,
		MinRTO:    5 * time.Millisecond,
		MaxRTO:    20 * time.Millisecond,
		StallRTOs: 4,
		Tracer:    tr,
	})

	// Tear down b's socket outright: a's packets now land nowhere and no
	// ack can ever come back.
	b.conn.Close()
	if err := a.Send(1, 42, 0, []byte("into the void")); err != nil {
		t.Fatal(err)
	}

	waitStall(t, a, 1, 5*time.Second)
	out := dump.String()
	for _, want := range []string{"stall-warn", "retransmit", "no ack progress"} {
		if !strings.Contains(out, want) {
			t.Errorf("flight dump missing %q:\n%s", want, out)
		}
	}
	if a.retransmits.Load() < int64(4) {
		t.Fatalf("retransmits = %d, want >= StallRTOs", a.retransmits.Load())
	}

	// onAck clearing the latch is what re-arms the detector; with the peer
	// gone the latch must hold and the counter stay at one for this flow.
	time.Sleep(100 * time.Millisecond)
	if n := a.stallWarns.Load(); n != 1 {
		t.Fatalf("stalls = %d with peer still dead, want 1", n)
	}
}

// TestStallCounterWithoutTracer: the detector is wired to telemetry, not
// tracing — with a nil tracer the stalls counter must still move.
func TestStallCounterWithoutTracer(t *testing.T) {
	a, b := pair(t, Config{
		RTO:       5 * time.Millisecond,
		MinRTO:    5 * time.Millisecond,
		MaxRTO:    20 * time.Millisecond,
		StallRTOs: 3,
	})
	if a.tr != nil {
		t.Skip("LCI_TRACE set in the environment; dark-path test not meaningful")
	}
	b.conn.Close()
	if err := a.Send(1, 1, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitStall(t, a, 1, 5*time.Second)
}

// TestDrainFlushesFinalAck: a clean shutdown where one side has nothing
// unacked must still deliver the other side's final ack — the peer's Close
// should drain fully rather than time out.
func TestDrainFlushesFinalAck(t *testing.T) {
	a, b := pair(t, Config{DrainTimeout: 2 * time.Second})
	if err := a.Send(1, 5, 0, []byte("last message")); err != nil {
		t.Fatal(err)
	}
	f := pollOne(t, b, 5*time.Second)
	f.Release()
	// b consumed the frame but its delayed ack may still be parked; its
	// drain must flush it so a's drain sees the window empty.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if !a.drain() {
		t.Fatal("a's drain timed out; final ack was never flushed")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("drain took %v, should complete promptly once the ack lands", d)
	}
}
