package lci

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcigraph/internal/concurrent"
	"lcigraph/internal/fabric"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// Allocator provides the receive-side buffers for rendezvous messages (the
// paper's "allocator can be any thread-safe memory manager; in our case it
// is Abelian's allocator"). Implementations must be safe for concurrent use.
type Allocator interface {
	Alloc(n int) []byte
	Free(b []byte)
}

// heapAllocator is the default allocator: plain Go allocations.
type heapAllocator struct{}

func (heapAllocator) Alloc(n int) []byte { return make([]byte, n) }
func (heapAllocator) Free([]byte)        {}

// Options configures an Endpoint.
type Options struct {
	// PoolPackets is the packet-pool size; it caps the injection rate.
	PoolPackets int
	// QueueDepth bounds the incoming-packet queue Q.
	QueueDepth int
	// MaxOutstanding bounds concurrent rendezvous sends and receives each.
	MaxOutstanding int
	// Workers sizes the pool's locality shards.
	Workers int
	// Allocator provides rendezvous receive buffers.
	Allocator Allocator
	// Telemetry is the metrics registry the endpoint reports into. Nil
	// selects the process-wide default registry; pass telemetry.NewDisabled
	// to opt out explicitly.
	Telemetry *telemetry.Registry
	// Tracer is the message-lifecycle event ring. Nil is the no-op dark
	// path: tracing off.
	Tracer *tracing.Tracer
	// InjectStall, when non-nil, wedges the named shard's progress server
	// once (fault injection; see inject.go). Nil in production.
	InjectStall *StallSpec

	// Shards is the number of progress shards NewSharded builds (see
	// shard.go). ≤ 1 (the default) keeps today's single progress server.
	// NewEndpoint ignores it — a bare Endpoint is always one shard.
	Shards int
	// ShardByTag steers eager/RTS traffic by message tag instead of by
	// peer rank. Only meaningful with Shards > 1.
	ShardByTag bool

	// shardIdx/shardTotal are set by NewSharded on each per-shard copy of
	// the options: this endpoint's place in the shard group. They stay
	// zero-valued for plain NewEndpoint callers (shard 0 of 1).
	shardIdx   int
	shardTotal int
}

func (o *Options) fill() {
	if o.PoolPackets <= 0 {
		o.PoolPackets = 256
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 1024
	}
	if o.MaxOutstanding > slotMask+1 {
		// Request ids carry the shard index above bit shardIDShift, so a
		// slot table can never exceed the slot field.
		o.MaxOutstanding = slotMask + 1
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Allocator == nil {
		o.Allocator = heapAllocator{}
	}
}

// sendPending tracks an RTS that awaits its RTR.
type sendPending struct {
	req *Request
	src []byte
	pkt *Packet
}

// recvPending tracks a rendezvous receive that awaits its RDMA put (or,
// on RDMA-less transports, its stream of FRG fragments).
type recvPending struct {
	req  *Request
	rkey uint32
	got  int // fragment bytes received so far (fragmented mode)
}

// slotTable is a fixed-size id-indexed table with a concurrent freelist,
// used to ship request identities across the wire.
type slotTable[T any] struct {
	slots []T
	free  *concurrent.MPMC[uint32]
}

func newSlotTable[T any](n int) *slotTable[T] {
	t := &slotTable[T]{free: concurrent.NewMPMC[uint32](n)}
	t.slots = make([]T, t.free.Cap())
	for i := range t.slots {
		t.free.Enqueue(uint32(i))
	}
	return t
}

func (t *slotTable[T]) alloc(v T) (uint32, bool) {
	id, ok := t.free.Dequeue()
	if !ok {
		return 0, false
	}
	t.slots[id] = v
	return id, true
}

func (t *slotTable[T]) get(id uint32) T { return t.slots[id] }

func (t *slotTable[T]) release(id uint32) {
	var zero T
	t.slots[id] = zero
	t.free.Enqueue(id)
}

// outKind discriminates deferred network operations parked on the outbox.
type outKind uint8

const (
	outPacket outKind = iota + 1 // retry fabric.Send of a pool packet
	outCtrl                      // retry fabric.Send of a packet-less control frame
	outPut                       // retry fabric.Put of a rendezvous payload
)

type outItem struct {
	kind   outKind
	dst    int
	header uint64
	meta   uint64
	pkt    *Packet // outPacket
	// outPut:
	rkey   uint32
	src    []byte
	imm    uint64
	sendID uint32
}

// Endpoint is one host's LCI instance over a fabric endpoint.
//
// SendEnq and RecvDeq may be called from any compute thread. Progress may
// be called from any goroutine; the progress lock serializes passes, and
// Serve is one such caller, the dedicated communication server.
type Endpoint struct {
	fep   fabric.Provider
	pool  *Pool
	q     *concurrent.MPMC[*fabric.Frame] // Q: global concurrent incoming queue
	out   *concurrent.MPSC[outItem]       // deferred ops, flushed by Progress
	sends *slotTable[sendPending]
	recvs *slotTable[*recvPending]
	alloc Allocator

	eagerLimit   int
	serverWorker int
	// bell is the provider's arrival doorbell, nil when it has none. park
	// is set when the provider lets an idle server block on it
	// (fabric.Parker); then SendEnq, RecvDeq and passes that leave work
	// parked ring it too.
	bell fabric.Doorbell
	park bool
	// owner is the doorbell every productive pass rings, for owners that
	// wait on RECV-DEQ or on a completion. It is the provider's bell, or,
	// when the server parks on that, a separate bell shared by the shard
	// group, so each bell keeps one waiter.
	owner fabric.Doorbell

	// progMu is the progress lock. It guards the fields from here to frags,
	// the poll tallies in m, and ps: the state only a Progress pass touches.
	progMu     sync.Mutex
	batch      [progressBatch]*fabric.Frame // PollBatch buffer, cleared after each pass
	stash      []*fabric.Frame              // polled frames awaiting space in Q
	outScratch []outItem                    // flushOutbox reuse: items blocked this round
	blockedDst map[int]bool                 // flushOutbox reuse: destinations that hit ErrResource
	outBlocked bool                         // last flushOutbox re-parked items

	// frags are in-progress fragmented rendezvous sends (RDMA-less
	// transports only), drained by Progress.
	frags []*fragJob

	// injectStall is the armed Options.InjectStall fault (nil in
	// production); see inject.go.
	injectStall *stallInjection

	statEager      atomic.Int64
	statRendezvous atomic.Int64
	statSendFails  atomic.Int64
	statRecvs      atomic.Int64

	// m holds the telemetry handles (zero value when disabled: all methods
	// are nil-safe no-ops).
	m coreMetrics

	// ps is this endpoint's progress-loop state — see progressState for the
	// ownership rule. When the endpoint is one shard of a Sharded group,
	// each shard has its own ps; nothing in it is rank-global.
	ps progressState

	// shardIdx/shardTotal identify this endpoint inside a Sharded group
	// (0 of 1 for a plain endpoint); idBits is shardIdx pre-shifted for
	// stamping into request ids. All three are immutable after NewEndpoint.
	shardIdx   int
	shardTotal int
	idBits     uint32

	// tr is the lifecycle tracer (nil = dark path: every site pays one
	// predictable branch). rank is cached so event sites skip the provider
	// call; midSeq allocates wire message ids (24-bit, wrapping) and is only
	// touched when tr != nil.
	tr     *tracing.Tracer
	rank   int
	midSeq atomic.Uint32
}

// progressState is the mutable state of one progress loop: the sampling
// clock for timed iterations and the busy/idle edge detector behind the
// EvProgressBusy/EvProgressIdle transition events and the empty-poll stall
// latch.
//
// Ownership rule: every field in this struct belongs to whoever holds the
// endpoint's progress lock (the shard's communication server, or an owner
// progressing inline). The fields are deliberately plain — not atomic —
// because only the lock holder reads or writes them; under endpoint
// sharding each shard embeds its own copy behind its own lock. Anything
// that other goroutines must observe (stat counters, pool occupancy) lives
// outside this struct as atomics.
type progressState struct {
	seq        uint64 // sampling clock for the timed progress iterations
	wasBusy    bool   // previous poll did work — busy/idle edge detection
	idleStreak uint32 // consecutive empty polls; arms the stall latch
}

// Stats are endpoint-level counters for observability and tests.
type Stats struct {
	EagerSends      int64 // SEND-ENQ accepted on the eager path
	RendezvousSends int64 // SEND-ENQ accepted on the rendezvous path
	SendFailures    int64 // retriable SEND-ENQ failures (pool/table full)
	Receives        int64 // messages handed out by RECV-DEQ
}

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		EagerSends:      e.statEager.Load(),
		RendezvousSends: e.statRendezvous.Load(),
		SendFailures:    e.statSendFails.Load(),
		Receives:        e.statRecvs.Load(),
	}
}

// fragJob is one rendezvous payload being streamed as FRG fragments.
type fragJob struct {
	dst    int
	recvID uint32
	sendID uint32
	mid    uint32 // wire message id carried on each fragment (tracing)
	src    []byte
	off    int
}

// NewEndpoint builds an LCI endpoint over any fabric provider (the
// simulated fabric's *fabric.Endpoint or a netfabric UDP provider).
func NewEndpoint(fep fabric.Provider, opt Options) *Endpoint {
	opt.fill()
	eager := fep.EagerLimit()
	e := &Endpoint{
		fep:        fep,
		pool:       NewPool(opt.PoolPackets, eager, opt.Workers),
		q:          concurrent.NewMPMC[*fabric.Frame](opt.QueueDepth),
		out:        concurrent.NewMPSC[outItem](),
		sends:      newSlotTable[sendPending](opt.MaxOutstanding),
		recvs:      newSlotTable[*recvPending](opt.MaxOutstanding),
		alloc:      opt.Allocator,
		eagerLimit: eager,
	}
	e.shardIdx = opt.shardIdx
	e.shardTotal = opt.shardTotal
	if e.shardTotal < 1 {
		e.shardTotal = 1
	}
	e.idBits = uint32(e.shardIdx) << shardIDShift
	e.injectStall = opt.InjectStall.armFor(e.shardIdx)
	e.serverWorker = e.pool.RegisterWorker()
	reg := opt.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	e.initMetrics(reg)
	e.tr = opt.Tracer
	e.rank = fep.Rank()
	e.bell, _ = fep.(fabric.Doorbell)
	e.owner = e.bell
	if _, ok := fep.(fabric.Parker); ok {
		e.park = true
		e.owner = make(chanBell, 1)
	}
	return e
}

// chanBell is a one-slot doorbell the endpoint owns, not its provider.
type chanBell chan struct{}

func (b chanBell) Arrivals() <-chan struct{} { return b }
func (b chanBell) Ring()                     { fabric.RingBell(b) }

// deferOp parks an operation the fabric refused on the outbox. On a
// parking provider it rings the provider's doorbell, so a parked server
// wakes to retry it.
func (e *Endpoint) deferOp(it outItem) {
	e.out.Push(it)
	if e.park {
		e.bell.Ring()
	}
}

// Tracer returns the endpoint's lifecycle tracer (nil when tracing is off).
func (e *Endpoint) Tracer() *tracing.Tracer { return e.tr }

// nextMsgID allocates the next 24-bit wire message id and its global
// tracing id. Called only when the tracer is live; id 0 is reserved for
// "untraced", so the sequence skips it on wrap.
func (e *Endpoint) nextMsgID() (mid uint32, gid uint64) {
	mid = e.midSeq.Add(1) & tracing.MsgIDMask
	if mid == 0 {
		mid = e.midSeq.Add(1) & tracing.MsgIDMask
	}
	return mid, tracing.MsgID(e.rank, mid)
}

// Rank returns the host rank.
func (e *Endpoint) Rank() int { return e.fep.Rank() }

// EagerLimit returns the eager/rendezvous protocol threshold in bytes.
func (e *Endpoint) EagerLimit() int { return e.eagerLimit }

// Pool exposes the packet pool (for worker registration and stats).
func (e *Endpoint) Pool() *Pool { return e.pool }

// SendEnq initiates a send of buf to dst with the given tag (Algorithm 1).
// worker is the caller's pool worker id from Pool().RegisterWorker().
//
// On success it returns a request whose Done() becomes true when buf may be
// reused (immediately for eager sends — the payload is staged into a pool
// packet — and after the RDMA put for rendezvous sends).
//
// It returns ok == false when the packet pool (or, for large messages, the
// outstanding-send table) is exhausted; the caller should progress its
// pending work and retry — the failure is never fatal.
func (e *Endpoint) SendEnq(worker, dst int, tag uint32, buf []byte) (*Request, bool) {
	pkt := e.pool.Alloc(worker)
	if pkt == nil {
		e.statSendFails.Add(1)
		return nil, false
	}
	r := &Request{Rank: dst, Tag: tag, Size: len(buf)}
	var mid uint32
	if e.tr != nil {
		mid, r.MsgID = e.nextMsgID()
	}
	if len(buf) <= e.eagerLimit {
		// Eager: stage into the packet; the request completes now because
		// the user's buffer is already copied out.
		pkt.n = copy(pkt.buf, buf)
		pkt.ptype = EGR
		pkt.dst = dst
		pkt.header = packHeader(EGR, tag, mid)
		pkt.meta = 0
		pkt.mid = mid
		r.markDone()
		if e.tr != nil {
			e.tr.Record(tracing.EvSendEnq, dst, tracing.ProtoEGR, len(buf), r.MsgID)
		}
		// Sample injection latency (SEND-ENQ to fabric accept, outbox
		// deferral included) every Nth eager send off the counter we
		// already pay for; unsampled sends skip the clock reads entirely.
		var t0 time.Time
		if n := e.statEager.Add(1); e.m.eagerLat != nil && n&eagerSampleMask == 0 {
			t0 = time.Now()
		}
		if err := e.fep.Send(dst, pkt.header, pkt.meta, pkt.payload()); err != nil {
			if err != fabric.ErrResource {
				panic(fmt.Sprintf("lci: eager send: %v", err))
			}
			pkt.t0 = t0
			e.deferOp(outItem{kind: outPacket, dst: dst, pkt: pkt})
			if e.tr != nil {
				e.tr.Record(tracing.EvRetry, dst, tracing.ProtoEGR, len(buf), r.MsgID)
			}
			return r, true
		}
		if e.tr != nil {
			e.tr.Record(tracing.EvEagerTx, dst, tracing.ProtoEGR, len(buf), r.MsgID)
		}
		e.observeEagerLatency(t0)
		e.pool.Free(worker, pkt)
		return r, true
	}

	// Rendezvous: ship an RTS carrying our request id and the size.
	sid, ok := e.sends.alloc(sendPending{req: r, src: buf, pkt: pkt})
	if !ok {
		e.pool.Free(worker, pkt)
		e.statSendFails.Add(1)
		return nil, false
	}
	e.statRendezvous.Add(1)
	pkt.ptype = RTS
	pkt.dst = dst
	pkt.header = packHeader(RTS, tag, mid)
	pkt.meta = packMeta(e.encodeID(sid), uint32(len(buf)))
	pkt.mid = mid
	pkt.src = buf
	pkt.req = r
	if e.tr != nil {
		e.tr.RecordArg(tracing.EvSendEnq, dst, tracing.ProtoRTS, len(buf), 1, r.MsgID)
	}
	if err := e.fep.Send(dst, pkt.header, pkt.meta, nil); err != nil {
		if err != fabric.ErrResource {
			e.sends.release(sid)
			e.pool.Free(worker, pkt)
			panic(fmt.Sprintf("lci: rts send: %v", err))
		}
		e.deferOp(outItem{kind: outPacket, dst: dst, pkt: pkt})
		if e.tr != nil {
			e.tr.Record(tracing.EvRetry, dst, tracing.ProtoRTS, len(buf), r.MsgID)
		}
		return r, true
	}
	if e.tr != nil {
		e.tr.Record(tracing.EvRTSTx, dst, tracing.ProtoRTS, len(buf), r.MsgID)
	}
	return r, true
}

// RecvDeq returns the next incoming message in first-packet order
// (Algorithm 2). There is no source or tag matching.
//
// For eager messages the returned request is already Done and Data holds the
// payload. For rendezvous messages RecvDeq allocates the target buffer,
// answers RTR, and returns a Pending request whose Data fills in place; the
// request completes when the RDMA put lands.
//
// ok == false means nothing is pending right now.
func (e *Endpoint) RecvDeq() (*Request, bool) {
	f, ok := e.q.Dequeue()
	if !ok {
		return nil, false
	}
	e.statRecvs.Add(1)
	tag := headerTag(f.Header)
	switch headerType(f.Header) {
	case EGR:
		// The request keeps the pooled frame: Data aliases its wire buffer.
		// The consumer recycles it with Request.Release once done.
		r := &Request{Data: f.Data, Size: len(f.Data), Rank: f.Src, Tag: tag, frame: f}
		if e.tr != nil {
			if mid := headerMID(f.Header); mid != 0 {
				r.MsgID = tracing.MsgID(f.Src, mid)
			}
			e.tr.Record(tracing.EvRecvDeq, f.Src, tracing.ProtoEGR, len(f.Data), r.MsgID)
		}
		r.markDone()
		return r, true
	case RTS:
		sid, size := metaHi(f.Meta), int(metaLo(f.Meta))
		buf := e.alloc.Alloc(size)
		r := &Request{Data: buf, Size: size, Rank: f.Src, Tag: tag}
		if e.tr != nil {
			if mid := headerMID(f.Header); mid != 0 {
				r.MsgID = tracing.MsgID(f.Src, mid)
			}
			e.tr.RecordArg(tracing.EvRecvDeq, f.Src, tracing.ProtoRTS, size, 1, r.MsgID)
		}
		pend := &recvPending{req: r}
		rid, ok := e.recvs.alloc(pend)
		if !ok {
			// Outstanding-receive table full: put the message back and let
			// the caller retry once completions drain.
			e.alloc.Free(buf)
			for !e.q.Enqueue(f) {
				// Q was full of newer messages; spin — the server cannot
				// refill Q faster than we drain it here.
			}
			return nil, false
		}
		var rkey uint32
		if e.fep.HasRDMA() {
			var err error
			rkey, err = e.fep.RegisterRegion(buf)
			if err != nil {
				e.recvs.release(rid)
				e.alloc.Free(buf)
				for !e.q.Enqueue(f) {
				}
				return nil, false
			}
			pend.rkey = rkey
		}
		header := packHeader(RTR, e.encodeID(rid), headerMID(f.Header))
		meta := packMeta(sid, rkey)
		e.m.txRTR.Add(1)
		if err := e.fep.Send(f.Src, header, meta, nil); err != nil {
			if err != fabric.ErrResource {
				panic(fmt.Sprintf("lci: rtr send: %v", err))
			}
			e.deferOp(outItem{kind: outCtrl, dst: f.Src, header: header, meta: meta})
			if e.tr != nil {
				e.tr.Record(tracing.EvRetry, f.Src, tracing.ProtoRTR, 0, r.MsgID)
			}
		} else if e.tr != nil {
			e.tr.Record(tracing.EvRTRTx, f.Src, tracing.ProtoRTR, size, r.MsgID)
		}
		f.Release() // RTS control frame fully consumed
		return r, true
	default:
		panic(fmt.Sprintf("lci: unexpected packet type %d in queue", headerType(f.Header)))
	}
}

// PendingIncoming returns a racy estimate of messages waiting in Q.
func (e *Endpoint) PendingIncoming() int { return e.q.Len() }
