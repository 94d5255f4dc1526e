package comm

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
)

// asyncLayers builds p connected LCI layers over the simulator.
func asyncLayers(t *testing.T, p int) []*LCILayer {
	t.Helper()
	fab := fabric.New(p, fabric.TestProfile())
	layers := make([]*LCILayer, p)
	for r := range layers {
		layers[r] = NewLCILayer(fab.Endpoint(r), lci.Options{})
	}
	t.Cleanup(func() {
		for _, l := range layers {
			l.Stop()
		}
	})
	return layers
}

// recvTagWait polls RecvTag until a message arrives or the deadline passes.
func recvTagWait(t *testing.T, l *LCILayer, tag uint32) Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m, ok := l.RecvTag(tag); ok {
			return m
		}
	}
	t.Fatalf("no message on tag %d within deadline", tag)
	return Message{}
}

// TestAsyncPostRecv: free-running point-to-point messages on a reserved tag
// arrive per tag, in order per peer, and interleave with Exchange traffic
// without cross-talk.
func TestAsyncPostRecv(t *testing.T) {
	const tagA, tagB = 250, 251
	layers := asyncLayers(t, 2)

	// Several messages on two tags, out of tag order.
	for i := 0; i < 8; i++ {
		buf := layers[0].AllocBuf(8)
		binary.LittleEndian.PutUint64(buf, uint64(100+i))
		layers[0].PostTag(1, tagA, buf)
	}
	buf := layers[0].AllocBuf(8)
	binary.LittleEndian.PutUint64(buf, 999)
	layers[0].PostTag(1, tagB, buf)

	// tagB drains independently of the earlier tagA backlog.
	m := recvTagWait(t, layers[1], tagB)
	if got := binary.LittleEndian.Uint64(m.Data); got != 999 || m.Peer != 0 {
		t.Fatalf("tagB message = %d from %d", got, m.Peer)
	}
	m.Release()
	for i := 0; i < 8; i++ {
		m := recvTagWait(t, layers[1], tagA)
		if got := binary.LittleEndian.Uint64(m.Data); got != uint64(100+i) {
			t.Fatalf("tagA message %d = %d", i, got)
		}
		m.Release()
	}
	if m, ok := layers[1].RecvTag(tagA); ok {
		t.Fatalf("unexpected extra message from %d", m.Peer)
	}
}

// TestAsyncLargePayload: async messages above the eager limit ride the
// rendezvous path transparently.
func TestAsyncLargePayload(t *testing.T) {
	const tag = 252
	layers := asyncLayers(t, 2)
	n := 64 << 10
	buf := layers[0].AllocBuf(n)
	for i := range buf {
		buf[i] = byte(i)
	}
	layers[0].PostTag(1, tag, buf)
	m := recvTagWait(t, layers[1], tag)
	if len(m.Data) != n {
		t.Fatalf("got %d bytes, want %d", len(m.Data), n)
	}
	for i, b := range m.Data {
		if b != byte(i) {
			t.Fatalf("byte %d = %d", i, b)
		}
	}
	m.Release()
}

// TestAsyncInterleavesWithExchange: reserved-tag traffic stashed during an
// Exchange does not satisfy the exchange, and survives it.
func TestAsyncInterleavesWithExchange(t *testing.T) {
	const tag = 250
	layers := asyncLayers(t, 2)

	// Park an async message at rank 1 before it enters the exchange.
	a := layers[0].AllocBuf(8)
	binary.LittleEndian.PutUint64(a, 7)
	layers[0].PostTag(1, tag, a)

	// A normal BSP exchange on an application tag, both ranks.
	done := make(chan struct{})
	go func() {
		defer close(done)
		out := make([][]byte, 2)
		b := layers[0].AllocBuf(8)
		binary.LittleEndian.PutUint64(b, 41)
		out[1] = b
		layers[0].Exchange(3, out, []bool{false, true}, []int{8, 8},
			func(peer int, data []byte) {})
	}()
	out := make([][]byte, 2)
	b := layers[1].AllocBuf(8)
	binary.LittleEndian.PutUint64(b, 42)
	out[0] = b
	got := uint64(0)
	layers[1].Exchange(3, out, []bool{true, false}, []int{8, 8},
		func(peer int, data []byte) { got = binary.LittleEndian.Uint64(data) })
	<-done
	if got != 41 {
		t.Fatalf("exchange delivered %d", got)
	}

	m := recvTagWait(t, layers[1], tag)
	if got := binary.LittleEndian.Uint64(m.Data); got != 7 {
		t.Fatalf("async message = %d", got)
	}
	m.Release()
}

// TestAsyncConservation: PostTag/RecvTag traffic between two layers on two
// reserved tags, mixing eager and above-eager-limit payloads, is delivered
// exactly once and intact from the right peer, and after Stop no tracked byte
// and no pooled frame is left behind. The Sockets arm has no RDMA, so its
// large payloads must cross as fragment streams rather than puts. Order is
// not checked: LCI does not order, and here a rendezvous message is
// overtaken by later eager ones, by another rendezvous whose fragments got
// through first, or by later sends while a full ring defers it.
// TestAsyncConservation: both ranks post and receive on two reserved tags
// at once, eager and rendezvous mixed, while extra goroutines call Progress
// on every layer concurrently with its Serve goroutine and with the
// owner's inline passes. Every message arrives exactly once and intact —
// checked byte by byte while the port's buffers recycle between sends and
// receives — and after Stop no tracked byte and no fabric frame is left
// over, at one progress shard and at four.
func TestAsyncConservation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		prof   fabric.Profile
		shards int
	}{
		{"test", fabric.TestProfile(), 1},
		{"sockets", fabric.Sockets(), 1},
		{"test-shards4", fabric.TestProfile(), 4},
		{"sockets-shards4", fabric.Sockets(), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const perTag = 24
			tags := [2]uint32{250, 251}
			fab := fabric.New(2, tc.prof)
			layers := [2]*LCILayer{
				NewLCILayer(fab.Endpoint(0), lci.Options{Shards: tc.shards}),
				NewLCILayer(fab.Endpoint(1), lci.Options{Shards: tc.shards}),
			}
			for _, l := range layers {
				if got := l.ep.Shards(); got != tc.shards {
					t.Fatalf("layer has %d shards, want %d", got, tc.shards)
				}
			}

			// Extra progress callers: any goroutine may drive Progress.
			const extraProgress = 3
			stopExtra := make(chan struct{})
			var extra sync.WaitGroup
			for _, l := range layers {
				for i := 0; i < extraProgress; i++ {
					extra.Add(1)
					go func(l *LCILayer) {
						defer extra.Done()
						for {
							select {
							case <-stopExtra:
								return
							default:
							}
							if !l.ep.Progress() {
								runtime.Gosched()
							}
						}
					}(l)
				}
			}
			// Every third message rides rendezvous; the rest are eager.
			large := func(seq int) bool { return seq%3 == 2 }
			size := func(seq int) int {
				if large(seq) {
					return 2*tc.prof.EagerLimit + 5
				}
				return 8 + seq
			}

			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					l, peer := layers[r], 1-r
					var seen [2][perTag]bool
					got := [2]int{}
					// recv takes one message for tags[ti] if any is pending
					// and checks it, payload byte by byte.
					recv := func(ti int) bool {
						tag := tags[ti]
						m, ok := l.RecvTag(tag)
						if !ok {
							return false
						}
						seq := int(binary.LittleEndian.Uint32(m.Data))
						switch {
						case m.Peer != peer || seq >= perTag || len(m.Data) != size(seq):
							t.Errorf("rank %d tag %d: bad message seq %d, %d bytes from %d",
								r, tag, seq, len(m.Data), m.Peer)
						case seen[ti][seq]:
							t.Errorf("rank %d tag %d: duplicate seq %d", r, tag, seq)
						default:
							for i := 4; i < len(m.Data); i++ {
								if m.Data[i] != byte(seq)^byte(tag) {
									t.Errorf("rank %d tag %d: seq %d corrupt at byte %d", r, tag, seq, i)
									break
								}
							}
							seen[ti][seq] = true
						}
						m.Release()
						got[ti]++
						return true
					}
					// Sends and receives interleave, so buffers recycle
					// through the cache mid-run: a completed send's buffer
					// or a released rendezvous receive's becomes a later
					// AllocBuf. Each must come back zeroed, and the
					// payload checks above catch any reuse while in flight.
					bufs := map[*byte]bool{}
					for seq := 0; seq < perTag; seq++ {
						for ti, tag := range tags {
							buf := l.AllocBuf(size(seq))
							for i, x := range buf {
								if x != 0 {
									t.Errorf("rank %d: AllocBuf byte %d = %#x, want 0", r, i, x)
									break
								}
							}
							bufs[&buf[0]] = true
							binary.LittleEndian.PutUint32(buf, uint32(seq))
							for i := 4; i < len(buf); i++ {
								buf[i] = byte(seq) ^ byte(tag)
							}
							l.PostTag(peer, tag, buf)
							recv(ti)
						}
					}
					if len(bufs) == 2*perTag {
						t.Errorf("rank %d: no AllocBuf reused a recycled buffer", r)
					}
					deadline := time.Now().Add(10 * time.Second)
					for ti, tag := range tags {
						for got[ti] < perTag {
							if !recv(ti) {
								if time.Now().After(deadline) {
									t.Errorf("rank %d tag %d: %d of %d messages", r, tag, got[ti], perTag)
									return
								}
								runtime.Gosched()
							}
						}
						if m, ok := l.RecvTag(tag); ok {
							t.Errorf("rank %d tag %d: extra message from %d", r, tag, m.Peer)
							m.Release()
						}
					}
				}(r)
			}
			wg.Wait()
			close(stopExtra)
			extra.Wait()
			for _, l := range layers {
				l.Stop()
			}
			for r, l := range layers {
				if n := l.Tracker().Current(); n != 0 {
					t.Errorf("rank %d: %d tracked bytes after Stop", r, n)
				}
				if puts := fab.Endpoint(r).Stats().Puts; tc.name == "sockets" && puts != 0 {
					t.Errorf("rank %d: %d RDMA puts on the sockets profile", r, puts)
				}
			}
			if n := fab.FramesOutstanding(); n != 0 {
				t.Errorf("%d frames still outstanding", n)
			}
		})
	}
}
