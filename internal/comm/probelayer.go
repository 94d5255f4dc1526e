package comm

import (
	"runtime"
	"sync/atomic"
	"time"

	"lcigraph/internal/concurrent"
	lci "lcigraph/internal/core"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/mpi"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// ProbeLayer is the §III-B baseline: two-sided MPI in THREAD_FUNNELED mode.
// Compute threads never touch MPI; they enqueue serialized messages onto a
// thread-safe MPSC queue, and one dedicated communication thread pops from
// it, aggregates small messages per destination (until the eager limit or a
// timeout), sends with MPI_Isend, discovers incoming messages with
// MPI_Iprobe + MPI_Irecv, and retires both directions with MPI_Test.
type ProbeLayer struct {
	c       *mpi.Comm
	rank    int
	tracker memtrack.Tracker

	epochs epochs
	stash  stash

	sendq *concurrent.MPSC[sendReq]
	recvq *concurrent.MPSC[Message]

	stop     chan struct{}
	done     chan struct{}
	inflight atomic.Int64 // sends accepted but not yet retired

	aggLimit   int
	aggTimeout time.Duration

	met     layerMetrics
	recHist *telemetry.Histogram // records per shipped MPI bundle
}

type sendReq struct {
	dst   int // -1 is a flush marker
	eff   uint32
	data  []byte
	track int // tracked bytes to free once handed to a bundle
}

// mpiBundleTag is the single MPI tag carrying bundles; logical tags are
// multiplexed inside the bundle, as in the paper's buffered network layer.
const mpiBundleTag = 1

// NewProbeLayer builds the probe layer over comm c (which must be in
// ThreadFunneled mode — only the spawned communication thread calls MPI).
func NewProbeLayer(c *mpi.Comm) *ProbeLayer {
	l := &ProbeLayer{
		c:          c,
		rank:       c.Rank(),
		epochs:     epochs{},
		stash:      stash{},
		sendq:      concurrent.NewMPSC[sendReq](),
		recvq:      concurrent.NewMPSC[Message](),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		aggLimit:   c.Impl().EagerLimit,
		aggTimeout: 50 * time.Microsecond,
	}
	l.SetTelemetry(nil)
	go l.commThread()
	return l
}

// Telemetry returns the layer's metrics registry.
func (l *ProbeLayer) Telemetry() *telemetry.Registry { return l.met.reg }

// SetTelemetry rewires the layer onto reg (nil selects the process default).
// Call before any traffic.
func (l *ProbeLayer) SetTelemetry(reg *telemetry.Registry) {
	tr := l.met.tr
	l.met = newLayerMetrics(reg, l.Name())
	l.met.tr = tr // keep an explicitly wired tracer across registry swaps
	l.recHist = l.met.reg.Histogram(MetricBundleRecords)
}

// SetTracer rewires the layer's lifecycle tracer (nil disables). Call
// before any traffic.
func (l *ProbeLayer) SetTracer(tr *tracing.Tracer) { l.met.tr = tr }

// Name implements Layer.
func (l *ProbeLayer) Name() string { return "mpi-probe" }

// SetAggregation tunes the buffered network layer (ablation knob): limit is
// the bundle-size threshold in bytes (≤ recHdr disables aggregation — every
// message ships alone), timeout caps how long a small message may wait.
// Call before the first Exchange.
func (l *ProbeLayer) SetAggregation(limit int, timeout time.Duration) {
	if limit < recHdr+1 {
		limit = recHdr + 1
	}
	l.aggLimit = limit
	l.aggTimeout = timeout
}

// Tracker implements Layer.
func (l *ProbeLayer) Tracker() *memtrack.Tracker { return &l.tracker }

// AllocBuf implements Layer.
func (l *ProbeLayer) AllocBuf(n int) []byte {
	l.tracker.Alloc(n)
	return make([]byte, n)
}

// Stop implements Layer.
func (l *ProbeLayer) Stop() {
	for l.inflight.Load() > 0 {
		runtime.Gosched()
	}
	close(l.stop)
	<-l.done
}

// Exchange implements Layer.
func (l *ProbeLayer) Exchange(tag uint32, out [][]byte, expect []bool, recvMax []int,
	onRecv func(peer int, data []byte)) {

	eff := l.epochs.next(tag)
	for p, buf := range out {
		if p == l.rank || buf == nil {
			continue
		}
		l.met.msgBytes.Observe(int64(len(buf)))
		l.met.recordSend(p, len(buf), 0, 0)
		l.inflight.Add(1)
		l.sendq.Push(sendReq{dst: p, eff: eff, data: buf, track: cap(buf)})
	}
	// Flush marker: don't let this phase's small messages wait for the
	// aggregation timeout once we block on receives.
	l.sendq.Push(sendReq{dst: -1})

	want := countExpected(expect, l.rank)
	got := 0
	for got < want {
		if m, ok := l.stash.take(eff); ok {
			onRecv(m.Peer, m.Data)
			m.Release()
			got++
			continue
		}
		if m, ok := l.recvq.Pop(); ok {
			if m.Tag == eff {
				onRecv(m.Peer, m.Data)
				m.Release()
				got++
			} else {
				l.stash.put(m)
			}
			continue
		}
		runtime.Gosched()
	}
	l.stash.done(eff)
}

// ---- communication thread ----

// Bundles use the record framing of bundle.go:
// eff u32 | len u32 | payload.

type aggBuf struct {
	buf   []byte
	first time.Time
}

type pendingRecv struct {
	req *mpi.Request
	buf []byte
	src int
}

func (l *ProbeLayer) commThread() {
	defer close(l.done)
	P := l.c.Size()
	aggs := make([]aggBuf, P)
	var sends []pendingSend
	var recvs []pendingRecv

	flushAgg := func(d int) {
		a := &aggs[d]
		if len(a.buf) == 0 {
			return
		}
		buf := a.buf
		a.buf = nil
		req, err := l.c.Isend(buf, d, mpiBundleTag)
		if err != nil {
			panic("probe layer: " + err.Error())
		}
		n := countRecords(buf)
		l.recHist.Observe(int64(n))
		sends = append(sends, pendingSend{req: req, buf: buf, msgs: n})
	}

	stopping := false
	idle := 0
	for {
		select {
		case <-l.stop:
			stopping = true
		default:
		}

		worked := false

		// Drain the send queue into aggregation buffers.
		for {
			sr, ok := l.sendq.Pop()
			if !ok {
				break
			}
			worked = true
			if sr.dst < 0 {
				for d := 0; d < P; d++ {
					flushAgg(d)
				}
				continue
			}
			need := recHdr + len(sr.data)
			a := &aggs[sr.dst]
			if len(a.buf)+need > l.aggLimit && len(a.buf) > 0 {
				flushAgg(sr.dst)
			}
			if len(a.buf) == 0 {
				a.first = time.Now()
				a.buf = l.allocBundle(max(need, l.aggLimit))[:0]
			}
			a.buf = appendRecord(a.buf, sr.eff, sr.data)
			l.tracker.Free(sr.track) // gather buffer absorbed into bundle
			if need > l.aggLimit {
				// Oversized single message: ship immediately (rendezvous).
				flushAgg(sr.dst)
			}
		}

		// Timeout-based flush caps latency for sparse traffic.
		now := time.Now()
		for d := 0; d < P; d++ {
			if len(aggs[d].buf) > 0 && now.Sub(aggs[d].first) > l.aggTimeout {
				flushAgg(d)
				worked = true
			}
		}

		// Discover incoming bundles: the probe pattern of the paper.
		for {
			st, ok := l.c.Iprobe(mpi.AnySource, mpiBundleTag)
			if !ok {
				break
			}
			worked = true
			buf := l.allocBundle(st.Count)
			req, err := l.c.Irecv(buf[:st.Count], st.Source, mpiBundleTag)
			if err != nil {
				panic("probe layer: " + err.Error())
			}
			recvs = append(recvs, pendingRecv{req: req, buf: buf[:st.Count], src: st.Source})
		}

		// Retire completed operations (MPI_Test for forward progress and
		// buffer reclamation).
		keepS := sends[:0]
		for _, s := range sends {
			done, err := l.c.Test(s.req)
			if err != nil {
				panic("probe layer: " + err.Error())
			}
			if done {
				l.tracker.Free(cap(s.buf))
				l.inflight.Add(int64(-s.msgs))
				worked = true
			} else {
				keepS = append(keepS, s)
			}
		}
		sends = keepS

		keepR := recvs[:0]
		for _, r := range recvs {
			done, err := l.c.Test(r.req)
			if err != nil {
				panic("probe layer: " + err.Error())
			}
			if done {
				l.unbundle(r.src, r.buf)
				worked = true
			} else {
				keepR = append(keepR, r)
			}
		}
		recvs = keepR

		if stopping && l.sendq.Empty() && len(sends) == 0 && allEmpty(aggs) {
			return
		}
		idle = lci.IdleBackoff(idle, worked)
	}
}

type pendingSend struct {
	req  *mpi.Request
	buf  []byte
	msgs int
}

func (l *ProbeLayer) allocBundle(n int) []byte {
	l.tracker.Alloc(n)
	return make([]byte, n)
}

// unbundle splits a received bundle into logical messages sharing the
// bundle buffer, freeing it when the last message is released.
func (l *ProbeLayer) unbundle(src int, buf []byte) {
	l.met.recordRecv(src, len(buf), 0)
	if !unpackBundle(Message{
		Peer:    src,
		Data:    buf,
		release: func() { l.tracker.Free(len(buf)) },
	}, l.recvq.Push) {
		l.met.badBundles.Inc()
	}
}

func allEmpty(aggs []aggBuf) bool {
	for i := range aggs {
		if len(aggs[i].buf) > 0 {
			return false
		}
	}
	return true
}
