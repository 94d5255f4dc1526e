package comm

import (
	"fmt"
	"runtime"
	"time"

	"lcigraph/internal/memtrack"
	"lcigraph/internal/mpi"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// RMALayer is the §III-C one-sided baseline. For each communication tag it
// collectively creates one window per source host: in window W_s every other
// host owns a receive buffer sized at the all-nodes-active upper bound for
// messages from s. Each round, host h opens an access epoch on its own
// window W_h (Start), puts a length-prefixed payload into each destination's
// buffer, closes the epoch (Complete), and then — with per-source
// generalized active-target synchronization — waits for each W_s exposure
// epoch to finish (TestWait, polled round-robin so messages are processed
// as sources complete), scatters, and re-posts the exposure for the next
// round.
//
// The pre-allocated upper-bound windows are why the RMA layer's memory
// footprint dwarfs LCI's in Fig. 5; windows are created on first
// communication of a tag, and creation time is excluded from measurements
// as in the paper.
type RMALayer struct {
	c       *mpi.Comm
	rank    int
	tracker memtrack.Tracker
	wins    map[uint32]*tagWins
	others  []int
	met     layerMetrics
	stop    chan struct{}
	done    chan struct{}
}

// tagWins holds one tag's window set. wins[s] is this host's participation
// in window W_s (the window source s puts through).
type tagWins struct {
	wins []*mpi.Win
}

// NewRMALayer builds the RMA layer over comm c (which must be in
// ThreadMultiple mode: both the caller and the dedicated progress thread
// issue MPI calls, per §III-C).
func NewRMALayer(c *mpi.Comm) *RMALayer {
	l := &RMALayer{
		c:    c,
		rank: c.Rank(),
		wins: map[uint32]*tagWins{},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for p := 0; p < c.Size(); p++ {
		if p != l.rank {
			l.others = append(l.others, p)
		}
	}
	l.met = newLayerMetrics(nil, l.Name())
	// The dedicated communication thread continuously polls the network to
	// ensure forward progress for RMA operations.
	go func() {
		defer close(l.done)
		// Progress cannot report whether it moved anything, so poll with a
		// mostly-yield cadence and an occasional short sleep to unload the
		// scheduler.
		tick := 0
		for {
			select {
			case <-l.stop:
				return
			default:
			}
			if err := l.c.Progress(); err != nil {
				panic("rma layer: " + err.Error())
			}
			tick++
			if tick%256 == 0 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
		}
	}()
	return l
}

// Name implements Layer.
func (l *RMALayer) Name() string { return "mpi-rma" }

// Telemetry returns the layer's metrics registry.
func (l *RMALayer) Telemetry() *telemetry.Registry { return l.met.reg }

// SetTelemetry rewires the layer onto reg (nil selects the process default).
// Call before any traffic.
func (l *RMALayer) SetTelemetry(reg *telemetry.Registry) {
	tr := l.met.tr
	l.met = newLayerMetrics(reg, l.Name())
	l.met.tr = tr // keep an explicitly wired tracer across registry swaps
}

// SetTracer rewires the layer's lifecycle tracer (nil disables). Call
// before any traffic.
func (l *RMALayer) SetTracer(tr *tracing.Tracer) { l.met.tr = tr }

// Tracker implements Layer.
func (l *RMALayer) Tracker() *memtrack.Tracker { return &l.tracker }

// AllocBuf implements Layer.
func (l *RMALayer) AllocBuf(n int) []byte {
	l.tracker.Alloc(n)
	return make([]byte, n)
}

// Stop implements Layer.
func (l *RMALayer) Stop() {
	close(l.stop)
	<-l.done
}

// ensureWins creates the tag's windows collectively on first use and opens
// the initial exposure epochs.
func (l *RMALayer) ensureWins(tag uint32, recvMax []int) *tagWins {
	if tw, ok := l.wins[tag]; ok {
		return tw
	}
	P := l.c.Size()
	tw := &tagWins{wins: make([]*mpi.Win, P)}
	for s := 0; s < P; s++ {
		size := 8
		if s != l.rank && recvMax != nil && recvMax[s] > 0 {
			size = 8 + recvMax[s]
		}
		buf := make([]byte, size)
		// The upper-bound window allocation is the footprint the paper
		// instruments (never freed during the run).
		l.tracker.Alloc(size)
		win, err := l.c.WinCreate(fmt.Sprintf("tag%d-src%d", tag, s), buf)
		if err != nil {
			panic("rma layer: " + err.Error())
		}
		tw.wins[s] = win
	}
	for _, s := range l.others {
		if err := tw.wins[s].Post([]int{s}); err != nil {
			panic("rma layer: " + err.Error())
		}
	}
	l.wins[tag] = tw
	return tw
}

// Exchange implements Layer. All hosts must call it collectively per tag
// (the BSP structure guarantees this).
func (l *RMALayer) Exchange(tag uint32, out [][]byte, expect []bool, recvMax []int,
	onRecv func(peer int, data []byte)) {

	tw := l.ensureWins(tag, recvMax)
	self := tw.wins[l.rank]

	// Access epoch on our own window: put to every peer (empty payloads
	// keep the epoch structure aligned; their length prefix is 0).
	if err := self.Start(l.others); err != nil {
		panic("rma layer: " + err.Error())
	}
	var hdr [8]byte
	for _, p := range l.others {
		data := out[p]
		putLen(hdr[:], len(data))
		if len(data) > 0 {
			l.met.msgBytes.Observe(int64(len(data)))
			l.met.recordSend(p, len(data), 0, 0)
			if err := self.Put(p, 8, data); err != nil {
				panic("rma layer: " + err.Error())
			}
		}
		if err := self.Put(p, 0, hdr[:]); err != nil {
			panic("rma layer: " + err.Error())
		}
	}
	if err := self.Complete(); err != nil {
		panic("rma layer: " + err.Error())
	}
	// Gather buffers are consumed once the puts complete (Complete blocks
	// until local completion), so they can be released now.
	for p, data := range out {
		if p != l.rank && data != nil {
			l.tracker.Free(cap(data))
		}
	}

	// Exposure epochs: poll sources round-robin, scattering each as it
	// completes, then immediately re-post for the next round.
	pending := append([]int(nil), l.others...)
	for len(pending) > 0 {
		progressed := false
		keep := pending[:0]
		for _, s := range pending {
			ok, err := tw.wins[s].TestWait()
			if err != nil {
				panic("rma layer: " + err.Error())
			}
			if !ok {
				keep = append(keep, s)
				continue
			}
			progressed = true
			buf := tw.wins[s].Buf()
			n := getLen(buf)
			if n > 0 {
				l.met.recordRecv(s, n, 0)
				onRecv(s, buf[8:8+n])
				putLen(buf, 0)
			}
			if err := tw.wins[s].Post([]int{s}); err != nil {
				panic("rma layer: " + err.Error())
			}
		}
		pending = keep
		if !progressed {
			runtime.Gosched()
		}
	}
}
