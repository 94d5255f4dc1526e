package cluster

import (
	"sync/atomic"
	"testing"

	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
)

func lciLayers(p int) func(int) comm.Layer {
	fab := fabric.New(p, fabric.TestProfile())
	return func(r int) comm.Layer {
		return comm.NewLCILayer(fab.Endpoint(r), lci.Options{})
	}
}

func TestRunAllHostsExecute(t *testing.T) {
	const p = 5
	var ran [p]atomic.Bool
	Run(p, 2, lciLayers(p), func(h *Host) {
		if h.P != p || h.Rank < 0 || h.Rank >= p {
			t.Errorf("bad host identity %d/%d", h.Rank, h.P)
		}
		if h.Pool.Workers() != 2 {
			t.Errorf("pool workers = %d", h.Pool.Workers())
		}
		ran[h.Rank].Store(true)
	})
	for r := range ran {
		if !ran[r].Load() {
			t.Fatalf("host %d never ran", r)
		}
	}
}

func TestBarrierSeparatesPhases(t *testing.T) {
	const p = 4
	const rounds = 50
	var phase atomic.Int64
	Run(p, 1, lciLayers(p), func(h *Host) {
		for r := 0; r < rounds; r++ {
			cur := phase.Load() / p
			if cur != int64(r) {
				t.Errorf("host %d sees phase %d in round %d", h.Rank, cur, r)
				return
			}
			phase.Add(1)
			h.Barrier()
			h.Barrier() // second barrier so the read above is stable
		}
	})
}

func TestAllreduce(t *testing.T) {
	const p = 6
	Run(p, 1, lciLayers(p), func(h *Host) {
		sum := h.AllreduceSum(int64(h.Rank + 1))
		if sum != p*(p+1)/2 {
			t.Errorf("host %d: sum = %d", h.Rank, sum)
		}
		max := h.AllreduceMax(int64(h.Rank * 10))
		if max != (p-1)*10 {
			t.Errorf("host %d: max = %d", h.Rank, max)
		}
		// Repeated allreduces with changing values don't cross-talk.
		for r := int64(0); r < 20; r++ {
			got := h.AllreduceSum(r)
			if got != r*p {
				t.Errorf("round %d: got %d", r, got)
				return
			}
		}
	})
}

func checkGather(t *testing.T, h *Host, parts [][]byte, mk func(rank int) []byte) {
	t.Helper()
	if h.Rank != 0 {
		if parts != nil {
			t.Errorf("rank %d: non-root gather returned parts", h.Rank)
		}
		return
	}
	if len(parts) != h.P {
		t.Errorf("root gathered %d parts, want %d", len(parts), h.P)
		return
	}
	for r, got := range parts {
		want := mk(r)
		if string(got) != string(want) {
			t.Errorf("rank %d part mismatch: %d bytes vs %d", r, len(got), len(want))
		}
	}
}

func TestGatherBytesLocal(t *testing.T) {
	const p = 5
	mk := func(r int) []byte { return []byte{byte(r), byte(r + 1), byte(r + 2)} }
	Run(p, 1, lciLayers(p), func(h *Host) {
		parts := h.GatherBytes(0, mk(h.Rank), 16)
		checkGather(t, h, parts, mk)
	})
}

func TestRunRankGather(t *testing.T) {
	const p = 4
	// Payloads big enough to exercise the rendezvous path under the test
	// profile, and rank-dependent sizes so misrouted parts are caught.
	mk := func(r int) []byte {
		b := make([]byte, 9000+100*r)
		for i := range b {
			b[i] = byte(r + i)
		}
		return b
	}
	runRanks(t, p, func(h *Host) {
		for round := 0; round < 3; round++ {
			parts := h.GatherBytes(0, mk(h.Rank), 16<<10)
			checkGather(t, h, parts, mk)
		}
	})
}

func TestBarrierReuse(t *testing.T) {
	b := NewBarrier(3)
	done := make(chan int, 3)
	for g := 0; g < 3; g++ {
		go func(g int) {
			for i := 0; i < 100; i++ {
				b.Wait()
			}
			done <- g
		}(g)
	}
	for g := 0; g < 3; g++ {
		<-done
	}
}

// runRanks drives RunRank for every rank concurrently, the in-process shape
// of the multi-process launcher: collectives ride the communication layer
// (netJob) instead of shared memory.
func runRanks(t *testing.T, p int, body func(h *Host)) {
	t.Helper()
	mk := lciLayers(p)
	done := make(chan struct{})
	for r := 0; r < p; r++ {
		go func(r int) {
			defer func() { done <- struct{}{} }()
			RunRank(r, p, 1, mk(r), body)
		}(r)
	}
	for r := 0; r < p; r++ {
		<-done
	}
}

func TestRunRankAllreduce(t *testing.T) {
	const p = 4
	runRanks(t, p, func(h *Host) {
		sum := h.AllreduceSum(int64(h.Rank + 1))
		if sum != p*(p+1)/2 {
			t.Errorf("rank %d: sum = %d", h.Rank, sum)
		}
		min := h.AllreduceMin(int64(h.Rank - 7))
		if min != -7 {
			t.Errorf("rank %d: min = %d", h.Rank, min)
		}
		// Successive collectives must not cross-talk: the layer's per-tag
		// epochs keep round r's contributions out of round r+1.
		for r := int64(0); r < 30; r++ {
			if got := h.AllreduceSum(r + int64(h.Rank)); got != r*p+p*(p-1)/2 {
				t.Errorf("round %d: got %d", r, got)
				return
			}
		}
	})
}

func TestRunRankBarrier(t *testing.T) {
	const p = 3
	var phase atomic.Int64
	runRanks(t, p, func(h *Host) {
		for r := 0; r < 25; r++ {
			cur := phase.Load() / p
			if cur != int64(r) {
				t.Errorf("rank %d sees phase %d in round %d", h.Rank, cur, r)
				return
			}
			phase.Add(1)
			h.Barrier()
			h.Barrier() // second barrier so the read above is stable
		}
	})
}

// TestReservedTagOrdering pins the reserved band's layout: its values are
// part of the wire format, every reserved tag lies in [ReservedLo, 255], and
// the band is contiguous, so the allocator guard (which checks only
// ReservedLo) covers all of them.
func TestReservedTagOrdering(t *testing.T) {
	got := [...]uint32{ReservedLo, IncidentTag, HealthTag, ServeTagLo, CollectiveTag}
	want := [...]uint32{248, 248, 249, 250, 255}
	if got != want {
		t.Fatalf("reserved tags (lo, incident, health, serveLo, collective) = %v, want %v", got, want)
	}
}
