package lci

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"lcigraph/internal/fabric"
	"lcigraph/internal/telemetry"
)

// parkedRank is one rank of a parking test: its shard set and registry.
type parkedRank struct {
	s   *Sharded
	reg *telemetry.Registry
}

// parks returns each shard's lci_core_progress_parks_total.
func (r parkedRank) parks() []int64 {
	out := make([]int64, r.s.Shards())
	for i := range out {
		out[i] = r.reg.Counter(shardMetric(MetricParks, i, r.s.Shards())).Value()
	}
	return out
}

// waitParked blocks until every shard's server has parked more often than
// since records. There is no deadline: a server that never parks hangs the
// test, which the test timeout reports with every goroutine's stack.
func (r parkedRank) waitParked(since []int64) {
	for i := range since {
		for r.reg.Counter(shardMetric(MetricParks, i, r.s.Shards())).Value() <= since[i] {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// recv takes the next message, blocking on the owner doorbell (with no
// backstop) whenever RECV-DEQ is empty, and waits on the same bell for a
// rendezvous receive to complete. A ring the protocol failed to make hangs
// the test.
func (r parkedRank) recv() *Request {
	for {
		req, ok := r.s.RecvDeq()
		if !ok {
			<-r.s.Arrivals()
			continue
		}
		for !req.Done() {
			<-r.s.Arrivals()
		}
		return req
	}
}

// servedPair builds two ranks of k shards on a fresh sim fabric and runs
// their servers until the returned stop function is called.
func servedPair(prof fabric.Profile, k int) (a, b parkedRank, stop func()) {
	f := fabric.New(2, prof)
	rank := func(i int) parkedRank {
		reg := telemetry.NewEnabled(i)
		return parkedRank{
			s:   NewSharded(f.Endpoint(i), Options{Shards: k, ShardByTag: k > 1, Telemetry: reg}),
			reg: reg,
		}
	}
	a, b = rank(0), rank(1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, r := range []parkedRank{a, b} {
		wg.Add(1)
		go func(s *Sharded) {
			defer wg.Done()
			s.Serve(done)
		}(r.s)
	}
	return a, b, func() {
		close(done)
		wg.Wait()
		a.s.Drain()
		b.s.Drain()
	}
}

// TestParkedServer: on the sim fabric every idle server parks on its
// shard's doorbell (lci_core_progress_parks_total rises); messages sent
// after that are delivered exactly once; the servers park again once the
// traffic is over; and then rendezvous (RDMA put) and fragmented (sockets
// profile) sends complete while their sender only waits on its owner
// doorbell and never polls.
func TestParkedServer(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof fabric.Profile
		k    int
	}{
		{"test-k1", fabric.TestProfile(), 1},
		{"test-k4", fabric.TestProfile(), 4},
		{"sockets-k1", fabric.Sockets(), 1},
		{"sockets-k4", fabric.Sockets(), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, stop := servedPair(tc.prof, tc.k)
			defer stop()
			zero := make([]int64, tc.k)
			a.waitParked(zero)
			b.waitParked(zero)

			// Eager: every message once, none twice, none invented.
			const n = 200
			w := a.s.RegisterWorker()
			for i := 0; i < n; i++ {
				var buf [4]byte
				binary.LittleEndian.PutUint32(buf[:], uint32(i))
				for {
					if _, ok := a.s.SendEnq(w, 1, uint32(i), buf[:]); ok {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			seen := make([]int, n)
			for got := 0; got < n; got++ {
				r := b.recv()
				i := binary.LittleEndian.Uint32(r.Data)
				if int(i) >= n || r.Tag != i {
					t.Fatalf("message tag %d payload %d: not sent", r.Tag, i)
				}
				seen[i]++
				r.Release()
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("message %d delivered %d times", i, c)
				}
			}
			b.s.Drain()
			if r, ok := b.s.RecvDeq(); ok {
				t.Fatalf("extra message after all %d: tag %d", n, r.Tag)
			}

			// The servers park again once the traffic is over.
			b.waitParked(b.parks())
			a.waitParked(a.parks())

			// Rendezvous: the sender posts and then only waits on its
			// owner doorbell; its parked server must complete the send.
			big := make([]byte, 8*a.s.EagerLimit())
			for j := range big {
				big[j] = byte(j * 7)
			}
			for tag := uint32(0); tag < uint32(2*tc.k); tag++ {
				var sreq *Request
				for {
					var ok bool
					if sreq, ok = a.s.SendEnq(w, 1, tag, big); ok {
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
				r := b.recv()
				if r.Tag != tag || !bytes.Equal(r.Data, big) {
					t.Fatalf("rendezvous tag %d: got tag %d, %d bytes, payload equal %v",
						tag, r.Tag, len(r.Data), bytes.Equal(r.Data, big))
				}
				for !sreq.Done() {
					<-a.s.Arrivals()
				}
			}
		})
	}
}
