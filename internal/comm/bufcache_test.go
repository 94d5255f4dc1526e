package comm

import (
	"runtime"
	"sync"
	"testing"
	"time"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/memtrack"
)

// TestBufCacheClassesAndBound: buffers come back at their class capacity
// (four classes to each doubling, so 3072-byte Gemini batches fit exactly),
// a recycled buffer is the one parked, foreign and oversized capacities are
// dropped, and the cache never parks more than bufCacheBytes.
func TestBufCacheClassesAndBound(t *testing.T) {
	var tr memtrack.Tracker
	c := &bufCache{tracker: &tr}
	for _, tc := range []struct{ n, cap int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 80}, {129, 160}, {3072, 3072}, {3073, 3584},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 1<<20 + 1}, // above the largest class: exact, uncached
	} {
		b := c.Alloc(tc.n)
		if len(b) != tc.n || cap(b) != tc.cap {
			t.Errorf("Alloc(%d): len %d cap %d, want cap %d", tc.n, len(b), cap(b), tc.cap)
		}
		if tr.Current() != int64(tc.cap) {
			t.Errorf("Alloc(%d) charged %d, want %d", tc.n, tr.Current(), tc.cap)
		}
		c.Free(b[:tc.n/2]) // a shortened slice frees what was charged
		if tr.Current() != 0 {
			t.Errorf("Free after Alloc(%d) left %d tracked bytes", tc.n, tr.Current())
		}
	}

	b := c.get(3000)
	c.put(b)
	if r := c.get(2900); &r[:1][0] != &b[:1][0] {
		t.Error("same-class get did not reuse the parked buffer")
	}
	held := c.held
	c.put(make([]byte, 100))   // capacity 100 is no class size
	c.put(make([]byte, 2<<20)) // above the largest class
	if c.held != held {
		t.Errorf("foreign buffers parked: held %d -> %d", held, c.held)
	}

	c = &bufCache{tracker: &tr}
	for i := 0; i < 2*bufCacheBytes/(1<<20); i++ {
		c.put(make([]byte, 1<<20))
		if c.held > bufCacheBytes {
			t.Fatalf("cache holds %d bytes, bound %d", c.held, bufCacheBytes)
		}
	}
	if c.held != bufCacheBytes {
		t.Errorf("cache holds %d bytes after overfilling, want the bound %d", c.held, bufCacheBytes)
	}
}

// waitTracked polls until every tracker is back to zero, calling pump in
// between; the deadline only bounds a hung test.
func waitTracked(t *testing.T, what string, pump func(), trackers ...*memtrack.Tracker) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r, tr := range trackers {
		for tr.Current() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: rank %d holds %d tracked bytes", what, r, tr.Current())
			}
			pump()
			runtime.Gosched()
		}
	}
}

// TestTrackerZeroAfterStop: on every LCI path a buffer is uncharged exactly
// as it was charged, so Tracker().Current() returns to 0 after Stop: Exchange
// at eager and rendezvous sizes, LCIStream batches sent shortened (Gemini's
// partial batch), and PostTag/RecvTag on both protocols.
func TestTrackerZeroAfterStop(t *testing.T) {
	const P = 2
	for _, prof := range []struct {
		name string
		prof fabric.Profile
	}{{"test", fabric.TestProfile()}, {"sockets", fabric.Sockets()}} {
		big := 2*prof.prof.EagerLimit + 5
		t.Run(prof.name+"/exchange", func(t *testing.T) {
			fab := fabric.New(P, prof.prof)
			layers := [P]*LCILayer{
				NewLCILayer(fab.Endpoint(0), lci.Options{}),
				NewLCILayer(fab.Endpoint(1), lci.Options{}),
			}
			var wg sync.WaitGroup
			for h := range layers {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					for round, size := range []int{100, big, 3000, big, 100} {
						out := make([][]byte, P)
						out[1-h] = layers[h].AllocBuf(size)
						out[1-h][0] = byte(round)
						expect := []bool{h == 1, h == 0}
						layers[h].Exchange(5, out, expect, []int{big, big}, func(peer int, data []byte) {
							if len(data) != size || data[0] != byte(round) {
								t.Errorf("rank %d round %d: %d bytes, first %d", h, round, len(data), data[0])
							}
						})
					}
					layers[h].Stop()
				}(h)
			}
			wg.Wait()
			for r, l := range layers {
				if n := l.Tracker().Current(); n != 0 {
					t.Errorf("rank %d: %d tracked bytes after Stop", r, n)
				}
			}
		})
		t.Run(prof.name+"/stream-partial-batch", func(t *testing.T) {
			fab := fabric.New(P, prof.prof)
			streams := [P]*LCIStream{
				NewLCIStream(fab.Endpoint(0), lci.Options{}),
				NewLCIStream(fab.Endpoint(1), lci.Options{}),
			}
			const batch, sends = 3072, 40
			for i := 0; i < sends; i++ {
				k := 12 * (1 + i%200) // a partial batch: buf[:k] of a full one
				if i%10 == 9 {
					k = batch
				}
				streams[0].SendMsg(i%4, 1, uint32(i), streams[0].AllocBuf(batch)[:k])
			}
			big := streams[0].AllocBuf(big)
			streams[0].SendMsg(0, 1, sends, big[:len(big)-100])
			for got := 0; got <= sends; {
				if m, ok := streams[1].RecvMsg(); ok {
					m.Release()
					got++
				} else {
					streams[0].RecvMsg() // reap and flush the sender
					runtime.Gosched()
				}
			}
			for _, s := range streams {
				s.Stop()
			}
			for r, s := range streams {
				if n := s.Tracker().Current(); n != 0 {
					t.Errorf("rank %d: %d tracked bytes after Stop", r, n)
				}
			}
		})
		t.Run(prof.name+"/posttag", func(t *testing.T) {
			fab := fabric.New(P, prof.prof)
			a := NewLCILayer(fab.Endpoint(0), lci.Options{})
			b := NewLCILayer(fab.Endpoint(1), lci.Options{})
			for _, size := range []int{8, 3000, big} {
				a.PostTag(1, 250, a.AllocBuf(size))
				m := recvTagWait(t, b, 250)
				if len(m.Data) != size {
					t.Errorf("%d-byte post arrived with %d bytes", size, len(m.Data))
				}
				m.Release()
			}
			waitTracked(t, "posttag", func() { a.RecvTag(250) }, a.Tracker(), b.Tracker())
			a.Stop()
			b.Stop()
			for r, l := range []*LCILayer{a, b} {
				if n := l.Tracker().Current(); n != 0 {
					t.Errorf("rank %d: %d tracked bytes after Stop", r, n)
				}
			}
		})
	}
}

// TestAllocBufZeroedAfterRecycle: a buffer sent dirty comes back from the
// cache — as the next AllocBuf of its class — zeroed. Abelian's bitmap
// gather ORs bits into a fresh buffer, so stale bytes would corrupt it.
// Both return paths are covered: an eager send that completes inside
// SEND-ENQ, and a rendezvous receive buffer given back by Release.
func TestAllocBufZeroedAfterRecycle(t *testing.T) {
	layers := asyncLayers(t, 2)
	a, b := layers[0], layers[1]
	zeroed := func(what string, buf, old []byte) {
		t.Helper()
		if &buf[0] != &old[0] {
			t.Fatalf("%s: AllocBuf did not reuse the recycled buffer", what)
		}
		for i, x := range buf {
			if x != 0 {
				t.Fatalf("%s: recycled buffer byte %d = %#x, want 0", what, i, x)
			}
		}
	}

	const small = 1000 // eager: the send completes inside emit
	buf := a.AllocBuf(small)
	for i := range buf {
		buf[i] = 0xa5
	}
	a.PostTag(1, 250, buf)
	zeroed("eager send", a.AllocBuf(small), buf)
	m := recvTagWait(t, b, 250)
	m.Release()

	bigN := 2*a.ep.EagerLimit() + 5 // rendezvous: b's receive buffer is cached
	big := a.AllocBuf(bigN)
	for i := range big {
		big[i] = 0x5a
	}
	a.PostTag(1, 250, big)
	m = recvTagWait(t, b, 250)
	data := m.Data
	m.Release()
	zeroed("rendezvous receive", b.AllocBuf(bigN), data)
}

// TestReleaseTwiceRecyclesOnce: releasing a rendezvous message twice — the
// same Message, or a copy of it — returns its buffer to the cache and
// uncharges it once, so two later AllocBufs can never share a buffer.
func TestReleaseTwiceRecyclesOnce(t *testing.T) {
	layers := asyncLayers(t, 2)
	a, b := layers[0], layers[1]
	n := 2*a.ep.EagerLimit() + 5
	a.PostTag(1, 250, a.AllocBuf(n))
	m := recvTagWait(t, b, 250)
	c := m
	m.Release()
	m.Release()
	c.Release()
	if cur := b.Tracker().Current(); cur != 0 {
		t.Fatalf("receiver holds %d tracked bytes after a double release, want 0", cur)
	}
	k := bufClass(n)
	if parked := len(b.cache.free[k]); parked != 1 {
		t.Fatalf("%d buffers parked after a double release, want 1", parked)
	}
	x, y := b.AllocBuf(n), b.AllocBuf(n)
	if &x[0] == &y[0] {
		t.Fatal("two AllocBufs returned the same buffer")
	}
}
