package netfabric

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lcigraph/internal/fabric"
)

// lossySize is the payload size of message i in the lossy exchange tests:
// a single- and multi-fragment mix, so reassembly runs on every path.
func lossySize(i int) int { return (i * 977) % 5000 }

// pumpWire polls p's sockets inline until stop closes, racing the reader
// goroutines and every other poller for the same datagrams without taking
// frames off a delivery ring.
func pumpWire(p *Provider, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			return
		default:
		}
		if p.pollWire() == 0 {
			runtime.Gosched()
		}
	}
}

// sendAll sends n lossy-test messages from src to rank to, polling src
// between refused sends so its acks are received inline too.
func sendAll(src fabric.Provider, to, n int) error {
	for i := 0; i < n; i++ {
		data := pattern(i, lossySize(i))
		deadline := time.Now().Add(30 * time.Second)
		for {
			err := src.Send(to, uint64(i), 0, data)
			if err == nil {
				break
			}
			if err != fabric.ErrResource {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("send %d stalled beyond deadline", i)
			}
			if f := src.Poll(); f != nil {
				f.Release()
			}
			runtime.Gosched()
		}
	}
	return nil
}

// recvStride consumes messages first, first+stride, ... below n from v and
// checks each arrives exactly once, in order, intact.
func recvStride(v fabric.Provider, first, stride, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for i := first; i < n; {
		f := v.Poll()
		if f == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for msg %d", i)
			}
			runtime.Gosched()
			continue
		}
		h, ok := f.Header, bytes.Equal(f.Data, pattern(i, lossySize(i)))
		f.Release()
		if h != uint64(i) {
			return fmt.Errorf("want msg %d, got header %d", i, h)
		}
		if !ok {
			return fmt.Errorf("msg %d: payload mismatch", i)
		}
		i += stride
	}
	return nil
}

// TestInlineRxLossyConservation: progress pollers and the reader goroutines
// race for the same sockets over a lossy, duplicating, reordering wire, and
// delivery must stay exactly-once and in order. Each side also runs a wire
// pump, so two pollers contend for every shard as well. views > 0 splits the
// receiver into that many shard views routed by header, each consumed by its
// own goroutine — then every view's poll drains every socket and the frames
// it reads land on other views' rings.
func TestInlineRxLossyConservation(t *testing.T) {
	for _, tc := range []struct {
		name          string
		shards, views int
	}{
		{"shards1", 1, 0},
		{"shards4", 4, 0},
		{"views4", 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400
			a, b := pair(t, Config{
				ReaderShards: tc.shards,
				RTO:          time.Millisecond,
				Fault:        Fault{Loss: 0.05, Dup: 0.05, Reorder: 0.05, Seed: 19},
			})
			var consumers []fabric.Provider
			if tc.views == 0 {
				consumers = []fabric.Provider{b}
			} else {
				k := tc.views
				consumers = b.ShardViews(k, fabric.ShardRoute{
					Frame: func(f *fabric.Frame) int { return int(f.Header % uint64(k)) },
				})
			}
			stop := make(chan struct{})
			var pumps sync.WaitGroup
			pumps.Add(2)
			go pumpWire(a, stop, &pumps)
			go pumpWire(b, stop, &pumps)

			errs := make(chan error, len(consumers)+1)
			var wg sync.WaitGroup
			for i, v := range consumers {
				wg.Add(1)
				go func(i int, v fabric.Provider) {
					defer wg.Done()
					if err := recvStride(v, i, len(consumers), n); err != nil {
						errs <- fmt.Errorf("consumer %d: %w", i, err)
					}
				}(i, v)
			}
			if err := sendAll(a, 1, n); err != nil {
				errs <- err
			}
			wg.Wait()
			close(stop)
			pumps.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if batchIOAvailable {
				if rx := a.Stats().InlineRx + b.Stats().InlineRx; rx == 0 {
					t.Fatal("no datagram was received inline")
				}
			}
		})
	}
}

// TestInlineRxPingPong: in a polled ping-pong the pollers, not the reader
// goroutines, pick the arrivals up, and the InlineRx counter shows it.
func TestInlineRxPingPong(t *testing.T) {
	if !batchIOAvailable {
		t.Skip("no vectored I/O on this platform: receiving stays on the readers")
	}
	a, b := pair(t, Config{})
	const rounds = 200
	send := func(p *Provider, to, i int) error {
		for {
			err := p.Send(to, uint64(i), 0, pattern(i, 64))
			if err != fabric.ErrResource {
				return err
			}
			runtime.Gosched()
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	echoErr := make(chan error, 1)
	go func() { // b echoes every ping back
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := b.Poll()
			if f == nil {
				runtime.Gosched()
				continue
			}
			h := int(f.Header)
			f.Release()
			if err := send(b, 0, h); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if err := send(a, 1, i); err != nil {
			t.Fatal(err)
		}
		f := pollOne(t, a, 5*time.Second)
		if f.Header != uint64(i) || !bytes.Equal(f.Data, pattern(i, 64)) {
			t.Fatalf("round %d: reply header %d", i, f.Header)
		}
		f.Release()
	}
	select {
	case err := <-echoErr:
		t.Fatal(err)
	default:
	}
	for _, p := range []*Provider{a, b} {
		if st := p.Stats(); st.InlineRx == 0 {
			t.Fatalf("rank %d: polled ping-pong received nothing inline (readers got %v)", p.Rank(), p.ShardRx())
		}
	}
}

// TestUnpolledProviderDrains: with nobody polling either side, the reader
// goroutines alone must deliver every message and drain the sender's window —
// the backstop behind progress-driven receive.
func TestUnpolledProviderDrains(t *testing.T) {
	a, b := pair(t, Config{})
	const n = 100 // within one peer's credit and window: nothing is ever released
	for i := 0; i < n; i++ {
		if err := a.Send(1, uint64(i), 0, pattern(i, 300)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	fl := a.flows[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		fl.mu.Lock()
		left := fl.unacked.len()
		fl.mu.Unlock()
		if left == 0 && b.Pending() == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unpolled pair stuck: %d unacked, %d of %d delivered", left, b.Pending(), n)
		}
		time.Sleep(time.Millisecond)
	}
	if rx := a.Stats().InlineRx + b.Stats().InlineRx; rx != 0 {
		t.Fatalf("%d datagrams received inline with nobody polling", rx)
	}
	ring := b.rs.Load().rings[0] // dequeue directly: Poll would receive inline
	for i := 0; i < n; i++ {
		f, ok := ring.Dequeue()
		if !ok || f.Header != uint64(i) || !bytes.Equal(f.Data, pattern(i, 300)) {
			t.Fatalf("msg %d missing or corrupt", i)
		}
		f.Release()
	}
}

// TestIdlePollAllocFree: an idle PollBatch — one recvmmsg that finds the
// socket empty on every shard, plus the ack and transmit flushes it
// triggers — allocates nothing, so a polling progress loop costs the
// garbage collector nothing between messages.
func TestIdlePollAllocFree(t *testing.T) {
	if !batchIOAvailable {
		t.Skip("no vectored I/O on this platform: receiving stays on the readers")
	}
	a, _ := pair(t, Config{})
	buf := make([]*fabric.Frame, 8)
	if allocs := testing.AllocsPerRun(1000, func() {
		if n := a.PollBatch(buf); n != 0 {
			t.Fatalf("idle provider received %d frames", n)
		}
	}); allocs != 0 {
		t.Fatalf("idle PollBatch allocated %.2f objects per call, want 0", allocs)
	}
}
