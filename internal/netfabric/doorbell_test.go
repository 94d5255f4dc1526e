package netfabric

import (
	"bytes"
	"testing"
	"time"

	"lcigraph/internal/fabric"
)

// waitBell waits for p's doorbell to ring. The deadline only bounds a hung
// test; the time it takes is not checked.
func waitBell(t *testing.T, p *Provider, what string) {
	t.Helper()
	select {
	case <-p.Arrivals():
	case <-time.After(30 * time.Second):
		t.Fatalf("rank %d: doorbell never rang for %s", p.Rank(), what)
	}
}

// TestDoorbellReaderBurst: with nobody polling, the reader goroutine that
// handles a data burst rings the receiver's doorbell, and the ack burst it
// sends back rings the sender's: the sender receives nothing but acks.
func TestDoorbellReaderBurst(t *testing.T) {
	a, b := pair(t, Config{})
	var _ fabric.Doorbell = a
	if err := a.Send(1, 7, 0, pattern(7, 100)); err != nil {
		t.Fatal(err)
	}
	a.flushPending() // the send queued on the flow; put it on the wire
	waitBell(t, b, "a data burst handled by its reader")
	if rx := b.Stats().InlineRx; rx != 0 {
		t.Fatalf("%d datagrams received inline with nobody polling", rx)
	}
	f, ok := b.rs.Load().rings[0].Dequeue() // Poll would receive inline
	if !ok || f.Header != 7 || !bytes.Equal(f.Data, pattern(7, 100)) {
		t.Fatal("doorbell rang but the message is missing or corrupt")
	}
	f.Release()
	waitBell(t, a, "an ack burst")
}

// TestDoorbellInlinePoll: a PollBatch that receives a burst inline rings the
// doorbell before it returns. The reader goroutine races the poller for
// every datagram, so the test sends until one poll wins a message, then
// checks that the doorbell, emptied just before that poll, is full. Only
// this test drains the doorbell, so a full one after a winning poll cannot
// be a leftover.
func TestDoorbellInlinePoll(t *testing.T) {
	if !batchIOAvailable {
		t.Skip("no vectored I/O on this platform: receiving stays on the readers")
	}
	a, b := pair(t, Config{})
	buf := make([]*fabric.Frame, 8)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("no poll won a datagram from the reader in %d sends", i)
		}
		if err := a.Send(1, uint64(i), 0, pattern(i, 64)); err != nil {
			if err == fabric.ErrResource {
				a.PollBatch(buf[:0]) // take acks to reopen the window
				continue
			}
			t.Fatal(err)
		}
		a.flushPending()
		for got := false; !got; {
			if time.Now().After(deadline) {
				t.Fatalf("message %d never arrived", i)
			}
			select { // empty the doorbell
			case <-b.Arrivals():
			default:
			}
			before := b.Stats().InlineRx
			n := b.PollBatch(buf)
			inline := b.Stats().InlineRx - before
			for _, f := range buf[:n] {
				got = got || f.Header == uint64(i)
				f.Release()
			}
			if inline > 0 {
				select {
				case <-b.Arrivals():
				default:
					t.Fatalf("PollBatch handled %d datagrams inline without ringing the doorbell", inline)
				}
				return
			}
		}
	}
}
