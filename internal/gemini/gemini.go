// Package gemini implements an engine in the style of the Gemini system
// (§II, §IV-B1): blocked edge-cut partitioning, a signal/slot push model,
// and — crucially for the paper's comparison — per-thread streaming
// communication: every compute thread batches signals per destination host
// and sends them directly (MPI under THREAD_MULTIPLE, or the LCI Queue),
// while a receive loop applies incoming slots as messages arrive.
package gemini

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"time"

	"lcigraph/internal/bitset"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/partition"
)

// signal record: global dst id (u32) | value (u64) = 12 bytes.
const recBytes = 12

// batchRecords is how many signals a thread accumulates per destination
// before shipping the batch (Gemini's per-thread send buffers).
const batchRecords = 256

// Tag layout: round(22 bits) << 2 | kind.
const (
	kindSig = 0
	kindFin = 1
)

func tagOf(round, kind int) uint32 { return uint32(round)<<2 | uint32(kind) }

// Engine is one host's Gemini engine instance.
type Engine struct {
	H  *cluster.Host
	HG *partition.HostGraph
	S  comm.Stream

	// vals holds one value per local proxy, canonical at masters. Compute
	// threads share it through sync/atomic; New fills it with plain stores
	// before the engine is shared.
	vals   []uint64
	reduce func(a, b uint64) uint64
	// waitSends completes the stream's outstanding sends before a round
	// ends, for a stream whose sends progress only inside its own calls
	// (sendWaiter); nil otherwise.
	waitSends func()

	stash map[uint32][]comm.Message
	round int
	// bell is the stream's doorbell (comm.Doorbell), or nil when it has
	// none: MPIStream, the paper's baseline, and LCIStream over netfabric,
	// whose server polls. parked is awaitRecv's park timer.
	bell   <-chan struct{}
	parked lci.ParkTimer

	ComputeTime time.Duration
	CommTime    time.Duration
	Rounds      int
}

// sendWaiter is implemented by a stream whose pending sends complete only
// while the sender keeps calling into it (comm.MPIStream: a rendezvous
// send's data moves inside the sender's own MPI calls). A round must not
// end, and its rank block in a collective, with such a send still pending.
type sendWaiter interface{ WaitSends() }

// New builds an engine over an edge-cut host partition and a stream.
func New(h *cluster.Host, hg *partition.HostGraph, s comm.Stream,
	identity uint64, reduce func(a, b uint64) uint64) *Engine {
	e := &Engine{
		H: h, HG: hg, S: s,
		vals:   make([]uint64, hg.NumLocal),
		reduce: reduce,
		stash:  map[uint32][]comm.Message{},
	}
	if d, ok := s.(comm.Doorbell); ok {
		e.bell = d.Arrivals()
	}
	if w, ok := s.(sendWaiter); ok {
		e.waitSends = w.WaitSends
	}
	if identity != 0 {
		e.fill(identity)
	}
	return e
}

// fill sets every value to identity with plain stores: call it only while
// no compute thread runs.
func (e *Engine) fill(identity uint64) {
	for i := range e.vals {
		e.vals[i] = identity
	}
}

// Get reads local proxy lv's value.
func (e *Engine) Get(lv uint32) uint64 { return atomic.LoadUint64(&e.vals[lv]) }

// Set stores v into local proxy lv.
func (e *Engine) Set(lv uint32, v uint64) { atomic.StoreUint64(&e.vals[lv], v) }

// SetReduce swaps the reduction operator (e.g. integer-add for the degree
// pre-pass, float-add for pagerank accumulation). Only call between rounds.
func (e *Engine) SetReduce(identity uint64, reduce func(a, b uint64) uint64) {
	e.reduce = reduce
	e.fill(identity)
}

// endRound completes the stream's pending sends, when it needs that, before
// the round returns.
func (e *Engine) endRound() {
	if e.waitSends != nil {
		e.waitSends()
	}
}

// Apply combines v into lv with the engine's reduction; reports change.
func (e *Engine) Apply(lv uint32, v uint64) bool { return e.apply(lv, v) }

// apply combines v into lv; reports change.
func (e *Engine) apply(lv uint32, v uint64) bool {
	p := &e.vals[lv]
	for {
		old := atomic.LoadUint64(p)
		merged := e.reduce(old, v)
		if merged == old {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, merged) {
			return true
		}
	}
}

// threadBatches is one compute thread's per-destination signal buffers.
type threadBatches struct {
	e      *Engine
	thread int
	round  int
	bufs   [][]byte
	counts []int64 // signals batches sent per peer (this thread)
}

func (e *Engine) newBatches(thread int) *threadBatches {
	return &threadBatches{
		e: e, thread: thread, round: e.round,
		bufs:   make([][]byte, e.HG.P),
		counts: make([]int64, e.HG.P),
	}
}

// emit queues a (gdst, val) signal for peer, flushing full batches.
func (b *threadBatches) emit(peer int, gdst uint32, val uint64) {
	buf := b.bufs[peer]
	if buf == nil {
		buf = b.e.S.AllocBuf(batchRecords * recBytes)[:0]
	}
	off := len(buf)
	buf = buf[:off+recBytes]
	binary.LittleEndian.PutUint32(buf[off:], gdst)
	binary.LittleEndian.PutUint64(buf[off+4:], val)
	if len(buf) == batchRecords*recBytes {
		b.flush(peer, buf)
		b.bufs[peer] = nil
		return
	}
	b.bufs[peer] = buf
}

func (b *threadBatches) flush(peer int, buf []byte) {
	b.e.S.SendMsg(b.thread, peer, tagOf(b.round, kindSig), buf)
	b.counts[peer]++
}

// finish flushes partial batches and returns per-peer batch counts.
func (b *threadBatches) finish() []int64 {
	for p, buf := range b.bufs {
		if len(buf) > 0 {
			b.flush(p, buf)
			b.bufs[p] = nil
		}
	}
	return b.counts
}

// StreamRound runs one BSP round: produce runs on every compute thread
// (thread id passed in) emitting signals; apply consumes each incoming
// signal. The main goroutine overlaps receiving with production. The round
// completes when every peer's FIN (carrying its batch count) and all its
// batches have been applied.
//
// When RecvMsg finds nothing while computing, the loop parks in one select
// on the stream's doorbell and the compute threads' completion; afterwards,
// or on a stream with no doorbell, it waits in awaitRecv.
func (e *Engine) StreamRound(
	produce func(thread int, emit func(peer int, gdst uint32, val uint64)),
	apply func(gdst uint32, val uint64)) {

	hg := e.HG
	P := hg.P
	threads := e.H.Pool.Workers()
	totals := make([]atomic.Int64, P)

	startCompute := time.Now()
	computeDone := make(chan struct{})
	go func() {
		defer close(computeDone)
		e.H.Pool.ForRange(threads, func(lo, hi int) {
			for t := lo; t < hi; t++ {
				b := e.newBatches(t)
				produce(t, b.emit)
				for p, c := range b.finish() {
					totals[p].Add(c)
				}
			}
		})
	}()

	// Overlap: consume incoming signal batches while compute runs.
	sigTag := tagOf(e.round, kindSig)
	finTag := tagOf(e.round, kindFin)
	var got int64
	expectFin := 0
	for p := 0; p < P; p++ {
		if p != e.H.Rank {
			expectFin++
		}
	}
	finSeen := 0
	var expected int64
	computing := true

	handle := func(m comm.Message) {
		switch m.Tag {
		case sigTag:
			for off := 0; off+recBytes <= len(m.Data); off += recBytes {
				gdst := binary.LittleEndian.Uint32(m.Data[off:])
				val := binary.LittleEndian.Uint64(m.Data[off+4:])
				apply(gdst, val)
			}
			got++
			m.Release()
		case finTag:
			expected += int64(binary.LittleEndian.Uint64(m.Data))
			finSeen++
			m.Release()
		default:
			e.stash[m.Tag] = append(e.stash[m.Tag], m)
		}
	}

	// Consume stashed messages from earlier rounds first.
	for _, m := range e.stash[sigTag] {
		handle(m)
	}
	delete(e.stash, sigTag)
	for _, m := range e.stash[finTag] {
		handle(m)
	}
	delete(e.stash, finTag)

	var commStart time.Time
	for {
		if computing {
			select {
			case <-computeDone:
				computing = false
				e.ComputeTime += time.Since(startCompute)
				commStart = time.Now()
				// Send FINs with total batch counts per peer.
				for p := 0; p < P; p++ {
					if p == e.H.Rank {
						continue
					}
					buf := e.S.AllocBuf(8)
					binary.LittleEndian.PutUint64(buf, uint64(totals[p].Load()))
					e.S.SendMsg(0, p, finTag, buf)
				}
			default:
			}
		}
		if !computing && finSeen == expectFin && got == expected {
			break
		}
		if m, ok := e.S.RecvMsg(); ok {
			handle(m)
			continue
		}
		if computing && e.bell != nil {
			select {
			case <-e.bell:
			case <-computeDone:
			}
			continue
		}
		e.awaitRecv()
	}
	e.endRound()
	e.CommTime += time.Since(commStart)
	e.round++
	e.Rounds++
}

// awaitRecv is the receive loops' wait after RecvMsg found nothing: park on
// the stream's doorbell, with a lci.ParkBackstop timer, or yield when there
// is no doorbell.
func (e *Engine) awaitRecv() {
	if e.bell == nil {
		runtime.Gosched()
		return
	}
	e.parked.Wait(e.bell, nil)
}

// relaxEdges runs the slot side of a signal: relax every local out-edge of
// src proxy lv using the signalled source value, activating changed masters.
// relax must be a pure function: on an unweighted graph it runs once per
// source, not once per edge.
func (e *Engine) relaxEdges(lv uint32, srcVal uint64,
	relax func(srcVal uint64, w uint32) uint64, next *bitset.Bitset) {
	hg := e.HG
	ws := hg.Local.NeighborWeights(int(lv))
	if ws == nil {
		val := relax(srcVal, 0)
		for _, v := range hg.Local.Neighbors(int(lv)) {
			if e.apply(v, val) {
				next.Set(int(v))
			}
		}
		return
	}
	for i, v := range hg.Local.Neighbors(int(lv)) {
		if e.apply(v, relax(srcVal, ws[i])) {
			next.Set(int(v))
		}
	}
}

// RunPush drives a data-driven push algorithm to global quiescence,
// returning the number of rounds.
//
// Gemini's sparse signal/slot model over destination-owned edges
// (partition.EdgeCutByDst): an active master u signals (u, value) once to
// every host holding out-edges of u (its mirror hosts); the slot on the
// receiving host relaxes u's local out-edges into local masters. Local
// out-edges of u are relaxed without communication.
func (e *Engine) RunPush(
	seed func(activate func(lv uint32)),
	relax func(srcVal uint64, w uint32) uint64) int {

	hg := e.HG
	cur := bitset.New(hg.NumLocal)
	next := bitset.New(hg.NumLocal)
	seed(func(lv uint32) { cur.Set(int(lv)) })

	threads := e.H.Pool.Workers()
	rounds := 0
	for {
		rounds++
		e.sparseRound(cur, next, relax, threads)

		t0 := time.Now()
		global := e.H.AllreduceSum(int64(next.CountRange(0, hg.NumMasters)))
		e.CommTime += time.Since(t0)
		if global == 0 {
			return rounds
		}
		cur, next = next, cur
		next.Reset()
	}
}
