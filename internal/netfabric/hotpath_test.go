package netfabric

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"lcigraph/internal/fabric"
)

// TestBatchIOFallback: with vectored I/O disabled the provider must run the
// portable one-datagram-per-syscall path on every receive shard — no
// recvmmsg on the reuseport siblings, no inline polls — and deliver exactly
// the same traffic. This is also what every non-Linux build runs
// unconditionally.
func TestBatchIOFallback(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			a, b := pair(t, Config{DisableBatchIO: true, ReaderShards: shards})
			if a.BatchIO() || b.BatchIO() {
				t.Fatal("DisableBatchIO left the vectored path active")
			}
			if offloadAvailable && b.ReaderShards() != shards {
				t.Fatalf("ReaderShards() = %d, want %d", b.ReaderShards(), shards)
			}
			for _, p := range []*Provider{a, b} {
				for _, s := range p.shards {
					if s.bio.Load() != nil || s.poll != nil {
						t.Fatalf("rank %d shard %d kept a vectored read driver", p.Rank(), s.idx)
					}
				}
			}
			const n = 200
			got := 0
			check := func(f *fabric.Frame) {
				if f.Header != uint64(got) || !bytes.Equal(f.Data, pattern(got, 300)) {
					t.Errorf("msg %d corrupted on fallback path (header %d)", got, f.Header)
				}
				f.Release()
				got++
			}
			for i := 0; i < n; i++ {
				sendRetry(t, a, b, 1, uint64(i), 0, pattern(i, 300), check)
			}
			for got < n {
				check(pollOne(t, b, 5*time.Second))
			}
			for _, p := range []*Provider{a, b} {
				st := p.Stats()
				if st.SendBatches != 0 || st.RecvBatches != 0 || st.InlineRx != 0 {
					t.Fatalf("rank %d: fallback path recorded vectored I/O: send=%d recv=%d inline=%d",
						p.Rank(), st.SendBatches, st.RecvBatches, st.InlineRx)
				}
			}
		})
	}
}

// TestPiggybackBidirectionalLossy: concurrent two-way traffic over a faulty
// wire, the configuration where piggybacked acks carry the whole ack load.
// Run under -race in CI: the piggyback stamp (sender goroutines) and the
// receive-state atomics (reader goroutine) cross threads on every packet.
func TestPiggybackBidirectionalLossy(t *testing.T) {
	a, b := pair(t, Config{
		RTO:   time.Millisecond,
		Fault: Fault{Loss: 0.05, Dup: 0.02, Reorder: 0.02, Seed: 11},
	})
	const n = 300
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	run := func(src, dst *Provider, to int) {
		defer wg.Done()
		got := 0
		for i := 0; i < n || got < n; {
			if i < n {
				err := src.Send(to, uint64(i), 0, pattern(i, 64))
				if err == nil {
					i++
					continue
				} else if err != fabric.ErrResource {
					errs <- err
					return
				}
			}
			if f := src.Poll(); f != nil {
				if f.Header != uint64(got) {
					t.Errorf("rank %d: frame %d has header %d", src.Rank(), got, f.Header)
				}
				f.Release()
				got++
			}
		}
	}
	wg.Add(2)
	go run(a, b, 1)
	go run(b, a, 0)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if pg := a.Stats().PiggybackAcks + b.Stats().PiggybackAcks; pg == 0 {
		t.Fatal("bidirectional traffic produced no piggybacked acks")
	}
}

// TestDelayedAcks: a one-way flow shorter than the ack-every threshold has
// nothing to piggyback on, so its acks must come from the delayed-ack tick —
// and the sender's window must still fully drain.
func TestDelayedAcks(t *testing.T) {
	a, b := pair(t, Config{AckEvery: 64})
	const n = 5 // below AckEvery: only the tick can ack these
	for i := 0; i < n; i++ {
		if err := a.Send(1, uint64(i), 0, pattern(i, 64)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		pollOne(t, b, 5*time.Second).Release()
	}
	deadline := time.Now().Add(5 * time.Second)
	fl := a.flows[1]
	for {
		fl.mu.Lock()
		left := fl.unacked.len()
		fl.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("one-way flow never drained: %d unacked", left)
		}
		time.Sleep(time.Millisecond)
	}
	if st := b.Stats(); st.DelayedAcks == 0 {
		t.Fatalf("acks did not come from the delayed-ack tick (standalone=%d delayed=%d)",
			st.AcksSent, st.DelayedAcks)
	}
}

// TestWireVersionMismatchDropped: a datagram from an older (or newer) wire
// version must be refused outright — v1 peers did not carry piggyback
// fields, so interpreting their packets would corrupt flow state.
func TestWireVersionMismatchDropped(t *testing.T) {
	a, _ := pair(t, Config{})
	buf := make([]byte, 1400)
	n := encodeData(buf, 1, 0, 0, 4, 9, 9, []byte("abcd"))
	buf[1] = wireVersion - 1
	before := a.dropped.Load()
	a.handleDatagram(buf[:n])
	if a.dropped.Load() != before+1 {
		t.Fatal("mismatched wire version was not dropped")
	}
	if f := a.Poll(); f != nil {
		t.Fatal("mismatched wire version delivered a frame")
	}
}

// TestAckEveryStandalone: a long one-way burst must trigger immediate
// standalone acks every AckEvery packets, bounding the sender's window
// occupancy between delayed-ack ticks.
func TestAckEveryStandalone(t *testing.T) {
	a, b := pair(t, Config{AckEvery: 8})
	const n = 100
	for i := 0; i < n; i++ {
		sendRetry(t, a, b, 1, uint64(i), 0, pattern(i, 64), func(f *fabric.Frame) { f.Release() })
	}
	for i := 0; i < n; i++ {
		pollOne(t, b, 5*time.Second).Release()
	}
	// One-way traffic means nothing can piggyback: the sender's window can
	// only drain through standalone acks.
	fl := a.flows[1]
	deadline := time.Now().Add(5 * time.Second)
	for {
		fl.mu.Lock()
		left := fl.unacked.len()
		fl.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("one-way burst never drained: %d unacked", left)
		}
		time.Sleep(time.Millisecond)
	}
	if acks := b.Stats().AcksSent; acks == 0 {
		t.Fatal("one-way burst produced no standalone acks")
	}
}
