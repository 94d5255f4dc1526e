package comm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
)

// makeLayers builds one layer of the named kind per host over a shared
// fabric. The returned stop function shuts everything down.
func makeLayers(t testing.TB, kind string, p int) ([]Layer, func()) {
	t.Helper()
	fab := fabric.New(p, fabric.TestProfile())
	layers := make([]Layer, p)
	switch kind {
	case "lci":
		for r := 0; r < p; r++ {
			layers[r] = NewLCILayer(fab.Endpoint(r), lci.Options{})
		}
	case "mpi-probe":
		w := mpi.NewWorldOn(fab, mpi.TestImpl(), mpi.ThreadFunneled)
		for r := 0; r < p; r++ {
			layers[r] = NewProbeLayer(w.Comm(r))
		}
	case "mpi-rma":
		w := mpi.NewWorldOn(fab, mpi.TestImpl(), mpi.ThreadMultiple)
		for r := 0; r < p; r++ {
			layers[r] = NewRMALayer(w.Comm(r))
		}
	default:
		t.Fatalf("unknown layer kind %q", kind)
	}
	return layers, func() {
		var wg sync.WaitGroup
		for _, l := range layers {
			wg.Add(1)
			go func(l Layer) { defer wg.Done(); l.Stop() }(l)
		}
		wg.Wait()
	}
}

func kinds() []string { return []string{"lci", "mpi-probe", "mpi-rma"} }

// runExchange performs one collective Exchange round on every layer
// concurrently and returns what each host received: got[h][peer] = payload.
func runExchange(t *testing.T, layers []Layer, tag uint32,
	outs [][][]byte, expect [][]bool, recvMax []int) [][][]byte {
	t.Helper()
	p := len(layers)
	got := make([][][]byte, p)
	var wg sync.WaitGroup
	for h := 0; h < p; h++ {
		got[h] = make([][]byte, p)
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			layers[h].Exchange(tag, outs[h], expect[h], recvMax,
				func(peer int, data []byte) {
					got[h][peer] = append([]byte(nil), data...)
				})
		}(h)
	}
	wg.Wait()
	return got
}

func TestExchangeAllToAll(t *testing.T) {
	const P = 4
	for _, kind := range kinds() {
		t.Run(kind, func(t *testing.T) {
			layers, stop := makeLayers(t, kind, P)
			defer stop()

			outs := make([][][]byte, P)
			expect := make([][]bool, P)
			recvMax := make([]int, P)
			for h := 0; h < P; h++ {
				outs[h] = make([][]byte, P)
				expect[h] = make([]bool, P)
				for p := 0; p < P; p++ {
					if p == h {
						continue
					}
					msg := []byte(fmt.Sprintf("h%d->p%d", h, p))
					buf := layers[h].AllocBuf(len(msg))
					copy(buf, msg)
					outs[h][p] = buf
					expect[h][p] = true
					recvMax[p] = 64
				}
			}
			got := runExchange(t, layers, 2, outs, expect, recvMax)
			for h := 0; h < P; h++ {
				for p := 0; p < P; p++ {
					if p == h {
						continue
					}
					want := fmt.Sprintf("h%d->p%d", p, h)
					if string(got[h][p]) != want {
						t.Fatalf("host %d from %d: %q want %q", h, p, got[h][p], want)
					}
				}
			}
		})
	}
}

func TestExchangeLargeMessages(t *testing.T) {
	const P = 2
	const size = 20000 // beyond every eager limit → rendezvous / big put
	for _, kind := range kinds() {
		t.Run(kind, func(t *testing.T) {
			layers, stop := makeLayers(t, kind, P)
			defer stop()
			rng := rand.New(rand.NewSource(3))
			payload := make([]byte, size)
			rng.Read(payload)

			outs := [][][]byte{make([][]byte, P), make([][]byte, P)}
			buf := layers[0].AllocBuf(size)
			copy(buf, payload)
			outs[0][1] = buf
			expect := [][]bool{{false, false}, {true, false}}
			recvMax := []int{size, size}

			got := runExchange(t, layers, 3, outs, expect, recvMax)
			if !bytes.Equal(got[1][0], payload) {
				t.Fatal("large payload corrupted")
			}
		})
	}
}

// TestExchangeManyRounds checks epoch separation: fast hosts must not leak
// round r+1 messages into a slow host's round r.
func TestExchangeManyRounds(t *testing.T) {
	const P = 3
	const rounds = 20
	for _, kind := range kinds() {
		t.Run(kind, func(t *testing.T) {
			layers, stop := makeLayers(t, kind, P)
			defer stop()
			recvMax := []int{16, 16, 16}

			var wg sync.WaitGroup
			for h := 0; h < P; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						out := make([][]byte, P)
						expect := make([]bool, P)
						for p := 0; p < P; p++ {
							if p == h {
								continue
							}
							buf := layers[h].AllocBuf(2)
							buf[0], buf[1] = byte(h), byte(r)
							out[p] = buf
							expect[p] = true
						}
						layers[h].Exchange(7, out, expect, recvMax,
							func(peer int, data []byte) {
								if data[0] != byte(peer) || data[1] != byte(r) {
									t.Errorf("host %d round %d: got sender %d round %d",
										h, r, data[0], data[1])
								}
							})
					}
				}(h)
			}
			wg.Wait()
		})
	}
}

// TestExchangeInterleavedTags runs two phases per round (reduce-like and
// broadcast-like) without barriers between them.
func TestExchangeInterleavedTags(t *testing.T) {
	const P = 2
	const rounds = 10
	for _, kind := range kinds() {
		t.Run(kind, func(t *testing.T) {
			layers, stop := makeLayers(t, kind, P)
			defer stop()
			recvMax := []int{8, 8}

			var wg sync.WaitGroup
			for h := 0; h < P; h++ {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					peer := 1 - h
					for r := 0; r < rounds; r++ {
						for _, tag := range []uint32{10, 11} {
							out := make([][]byte, P)
							buf := layers[h].AllocBuf(3)
							buf[0], buf[1], buf[2] = byte(tag), byte(r), byte(h)
							out[peer] = buf
							expect := make([]bool, P)
							expect[peer] = true
							layers[h].Exchange(tag, out, expect, recvMax,
								func(p int, data []byte) {
									if data[0] != byte(tag) || data[1] != byte(r) || data[2] != byte(peer) {
										t.Errorf("host %d tag %d round %d: got %v", h, tag, r, data)
									}
								})
						}
					}
				}(h)
			}
			wg.Wait()
		})
	}
}

// TestExchangeSparsePattern: only some pairs talk; expectations respected.
func TestExchangeSparsePattern(t *testing.T) {
	const P = 4
	for _, kind := range kinds() {
		t.Run(kind, func(t *testing.T) {
			layers, stop := makeLayers(t, kind, P)
			defer stop()
			recvMax := []int{8, 8, 8, 8}

			// Ring: h sends to (h+1)%P only.
			outs := make([][][]byte, P)
			expect := make([][]bool, P)
			for h := 0; h < P; h++ {
				outs[h] = make([][]byte, P)
				expect[h] = make([]bool, P)
				buf := layers[h].AllocBuf(1)
				buf[0] = byte(h)
				outs[h][(h+1)%P] = buf
				expect[h][(h+P-1)%P] = true
			}
			got := runExchange(t, layers, 5, outs, expect, recvMax)
			for h := 0; h < P; h++ {
				prev := (h + P - 1) % P
				if len(got[h][prev]) != 1 || got[h][prev][0] != byte(prev) {
					t.Fatalf("host %d: got %v from %d", h, got[h][prev], prev)
				}
				for p := 0; p < P; p++ {
					if p != prev && got[h][p] != nil {
						t.Fatalf("host %d: unexpected message from %d", h, p)
					}
				}
			}
		})
	}
}

// TestMemoryFootprintShape reproduces Fig. 5's qualitative claim on a tiny
// workload: the RMA layer's footprint (upper-bound windows) must exceed the
// LCI layer's (recycled buffers) for the same traffic.
func TestMemoryFootprintShape(t *testing.T) {
	const P = 4
	const rounds = 10
	maxTracked := map[string]int64{}
	for _, kind := range kinds() {
		layers, stop := makeLayers(t, kind, P)
		recvMax := make([]int, P)
		for i := range recvMax {
			recvMax[i] = 4096 // upper bound ≫ actual traffic
		}
		var wg sync.WaitGroup
		for h := 0; h < P; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					out := make([][]byte, P)
					expect := make([]bool, P)
					for p := 0; p < P; p++ {
						if p == h {
							continue
						}
						buf := layers[h].AllocBuf(64) // actual ≪ upper bound
						out[p] = buf
						expect[p] = true
					}
					layers[h].Exchange(9, out, expect, recvMax, func(int, []byte) {})
				}
			}(h)
		}
		wg.Wait()
		var maxm int64
		for _, l := range layers {
			if m := l.Tracker().Max(); m > maxm {
				maxm = m
			}
		}
		maxTracked[kind] = maxm
		stop()
	}
	if maxTracked["mpi-rma"] <= maxTracked["lci"] {
		t.Errorf("RMA footprint (%d) should exceed LCI footprint (%d)",
			maxTracked["mpi-rma"], maxTracked["lci"])
	}
	t.Logf("footprints: %v", maxTracked)
}

func TestEffTagPacking(t *testing.T) {
	e := epochs{}
	a0 := e.next(5)
	a1 := e.next(5)
	b0 := e.next(6)
	if a0 == a1 || a0 == b0 {
		t.Fatal("effective tags collide")
	}
	if effTag(5, 0) != a0 {
		t.Fatal("epoch counter broken")
	}
}

func TestStash(t *testing.T) {
	s := stash{}
	if _, ok := s.take(1); ok {
		t.Fatal("take from empty stash")
	}
	s.put(Message{Tag: 1, Peer: 10})
	s.put(Message{Tag: 1, Peer: 11})
	s.put(Message{Tag: 2, Peer: 12})
	m, ok := s.take(1)
	if !ok || m.Peer != 10 {
		t.Fatalf("take = %+v", m)
	}
	m, _ = s.take(1)
	if m.Peer != 11 {
		t.Fatal("stash not FIFO")
	}
	if _, ok := s.take(1); ok {
		t.Fatal("stash leaked")
	}
	if m, _ := s.take(2); m.Peer != 12 {
		t.Fatal("tag-2 message lost")
	}
}

// TestStashDropsFinishedEpochs: an Exchange that has received its expected
// messages deletes its epoch's key from the stash, so a long-lived layer
// does not grow one map entry per epoch.
func TestStashDropsFinishedEpochs(t *testing.T) {
	for _, kind := range []string{"lci", "mpi-probe"} {
		layers, stop := makeLayers(t, kind, 2)
		var wg sync.WaitGroup
		for r, l := range layers {
			wg.Add(1)
			go func(r int, l Layer) {
				defer wg.Done()
				expect := []bool{true, true}
				for i := 0; i < 100; i++ {
					out := make([][]byte, 2)
					out[1-r] = l.AllocBuf(8)
					l.Exchange(7, out, expect, nil, func(int, []byte) {})
				}
			}(r, l)
		}
		wg.Wait()
		stop()
		for r, l := range layers {
			var st stash
			switch l := l.(type) {
			case *LCILayer:
				st = l.stash
			case *ProbeLayer:
				st = l.stash
			}
			if len(st) != 0 {
				t.Errorf("%s rank %d: stash holds %d keys after 100 finished epochs", kind, r, len(st))
			}
		}
	}
}
