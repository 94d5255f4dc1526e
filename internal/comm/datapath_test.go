package comm

import (
	"runtime"
	"sync"
	"testing"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/telemetry"
)

// TestDatapathCounts gates the small-message data path on counts: 4 hosts
// on the sim fabric run a fused all-to-all of 64-byte messages, 64 per peer
// per epoch. Frame pooling and coalescing must ship at most one wire frame
// per three messages, recycle frames, bundle messages and stay near
// allocation-free. The bounds are ≥3x fewer frames and ≥5x fewer heap
// allocations than the unpooled, uncoalesced path measured (1.0 frames and
// 6.41 allocations per message; EXPERIMENTS.md, "History").
func TestDatapathCounts(t *testing.T) {
	const (
		hosts   = 4
		perPeer = 64
		size    = 64
	)
	epochs := 25
	if testing.Short() {
		epochs = 8
	}
	fab := fabric.New(hosts, fabric.TestProfile())
	layers := make([]*LCILayer, hosts)
	for r := range layers {
		reg := telemetry.NewEnabled(r)
		fab.Endpoint(r).RegisterMetrics(reg)
		layers[r] = NewLCILayer(fab.Endpoint(r), lci.Options{
			PoolPackets:    64 * hosts,
			QueueDepth:     1024,
			MaxOutstanding: 1024,
			Workers:        3,
			Telemetry:      reg,
		})
	}

	// Payloads are gathered up front so the measurement isolates the
	// runtime's per-message cost from the application's payload generation.
	perEpoch := (hosts - 1) * perPeer
	mkBufs := func(n int) [][][]byte {
		all := make([][][]byte, hosts)
		for r := range all {
			bufs := make([][]byte, n*perEpoch)
			for k := range bufs {
				bufs[k] = layers[r].AllocBuf(size)
				bufs[k][0] = byte(k)
			}
			all[r] = bufs
		}
		return all
	}
	runEpoch := func(tag uint32, all [][][]byte, epoch int) {
		var wg sync.WaitGroup
		for r := range layers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				l := layers[r]
				bufs := all[r][epoch*perEpoch:]
				eff := l.BeginFused(tag)
				k := 0
				for p := 0; p < hosts; p++ {
					if p == r {
						continue
					}
					for i := 0; i < perPeer; i++ {
						l.SendFused(i, p, eff, bufs[k])
						k++
					}
				}
				l.FinishFusedCount(eff, perEpoch, func(int, []byte) {})
			}(r)
		}
		wg.Wait()
	}
	stats := func() (frames, recycled int64) {
		for r := 0; r < hosts; r++ {
			s := fab.Endpoint(r).Stats()
			frames += s.SendFrames
			recycled += s.FramesRecycled
		}
		return
	}

	runEpoch(1, mkBufs(1), 0) // warm-up: fills the frame free-list and caches
	all := mkBufs(epochs)
	framesBefore, _ := stats()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for e := 0; e < epochs; e++ {
		runEpoch(2, all, e)
	}
	runtime.ReadMemStats(&after)
	framesAfter, recycled := stats()
	var coalesced int64
	for _, l := range layers {
		coalesced += l.CoalesceStats().MsgsCoalesced
		l.Stop()
	}

	msgs := float64(hosts * perEpoch * epochs)
	framesPerMsg := float64(framesAfter-framesBefore) / msgs
	allocsPerMsg := float64(after.Mallocs-before.Mallocs) / msgs
	t.Logf("%d msgs: %.3f frames/msg, %.2f allocs/msg, %d coalesced, %d frames recycled",
		int(msgs), framesPerMsg, allocsPerMsg, coalesced, recycled)
	if framesPerMsg > 1.0/3 {
		t.Errorf("%.3f wire frames per message, want <= 1/3", framesPerMsg)
	}
	if allocsPerMsg > 1.28 {
		t.Errorf("%.2f heap allocations per message, want <= 1.28", allocsPerMsg)
	}
	if coalesced == 0 || recycled == 0 {
		t.Errorf("no coalescing (%d msgs) or frame recycling (%d frames)", coalesced, recycled)
	}
}
