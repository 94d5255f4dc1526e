package comm

import (
	"runtime"
	"sync"
	"testing"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
)

// TestSmallMessageCounts gates the small-message paths of the LCI layer on
// counts: 4 hosts on the sim fabric exchange 64-byte messages, one per peer
// per round, through BSP Exchange and through PostTag/RecvTag. Every message
// must leave as exactly one fabric frame, every pooled frame must return to
// the fabric after Stop, and the heap allocations per message must stay
// within about 10% of what the runtime costs today (Exchange 3.64–3.71,
// PostTag 3.00 on 2 vCPUs, go1.24.0, the same under -race). They come from
// the core's per-operation requests and the port's per-receive release
// closure; ROADMAP item 10 (completion objects) takes them to 0 and should
// tighten these bounds as it lands.
func TestSmallMessageCounts(t *testing.T) {
	const (
		hosts = 4
		size  = 64
		tag   = 250 // PostTag's reserved tag; Exchange uses it as a base tag
	)
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	cases := []struct {
		name      string
		maxAllocs float64
		// round runs one round on l: a 64-byte message to every peer, then
		// the hosts-1 messages the peers sent it.
		round func(l *LCILayer, out [][]byte, expect []bool)
	}{
		{"Exchange", 4.0, func(l *LCILayer, out [][]byte, expect []bool) {
			for p := range out {
				if p != l.rank {
					out[p] = l.AllocBuf(size)
				}
			}
			l.Exchange(tag, out, expect, nil, func(int, []byte) {})
		}},
		{"PostTag", 3.3, func(l *LCILayer, _ [][]byte, _ []bool) {
			for p := 0; p < hosts; p++ {
				if p != l.rank {
					l.PostTag(p, tag, l.AllocBuf(size))
				}
			}
			for got := 0; got < hosts-1; {
				m, ok := l.RecvTag(tag)
				if !ok {
					runtime.Gosched()
					continue
				}
				m.Release()
				got++
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab := fabric.New(hosts, fabric.TestProfile())
			layers := make([]*LCILayer, hosts)
			for r := range layers {
				layers[r] = NewLCILayer(fab.Endpoint(r), lci.Options{})
			}
			expect := make([]bool, hosts)
			for p := range expect {
				expect[p] = true
			}
			run := func(n int) {
				var wg sync.WaitGroup
				for _, l := range layers {
					wg.Add(1)
					go func(l *LCILayer) {
						defer wg.Done()
						out := make([][]byte, hosts)
						for i := 0; i < n; i++ {
							tc.round(l, out, expect)
						}
					}(l)
				}
				wg.Wait()
			}
			frames := func() (n int64) {
				for r := 0; r < hosts; r++ {
					n += fab.Endpoint(r).Stats().SendFrames
				}
				return n
			}

			run(rounds / 10) // warm-up: fills the frame free-list and caches
			framesBefore := frames()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run(rounds)
			runtime.ReadMemStats(&after)
			framesAfter := frames()
			for _, l := range layers {
				l.Stop()
			}

			msgs := float64(hosts * (hosts - 1) * rounds)
			framesPerMsg := float64(framesAfter-framesBefore) / msgs
			allocsPerMsg := float64(after.Mallocs-before.Mallocs) / msgs
			t.Logf("%d msgs: %.3f frames/msg, %.2f allocs/msg", int(msgs), framesPerMsg, allocsPerMsg)
			if framesPerMsg != 1 {
				t.Errorf("%.3f fabric frames per message, want exactly 1", framesPerMsg)
			}
			if allocsPerMsg > tc.maxAllocs {
				t.Errorf("%.2f heap allocations per message, want <= %.1f", allocsPerMsg, tc.maxAllocs)
			}
			if n := fab.FramesOutstanding(); n != 0 {
				t.Errorf("%d frames still outstanding after Stop", n)
			}
		})
	}
}
