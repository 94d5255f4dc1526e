package lci

import (
	"sync"
	"sync/atomic"

	"lcigraph/internal/fabric"
	"lcigraph/internal/tracing"
)

// Multi-threaded progress (DESIGN.md §15): a rank may run K progress shards,
// each a full *Endpoint — its own packet-pool partition, incoming queue,
// outstanding-send/recv tables and progress goroutine — over one shared
// fabric provider split into K delivery views (fabric.Sharder). Traffic is
// steered deterministically so every message's whole lifecycle (data,
// control frames, completions) stays on one shard:
//
//   - EGR and RTS frames route by peer (default) or by tag: both sides of
//     the hash are known to sender and receiver, so no coordination is
//     needed.
//   - Everything that carries a request id (RTR, FRG, put completions)
//     routes by the shard bits baked into the id itself — the shard that
//     allocated the request always gets its control traffic back,
//     regardless of the data-steering mode.
//
// At K=1 (the default) the id shard bits are zero, no views are created and
// the behavior is bit-identical to the single-endpoint runtime.

// Request ids (sid/rid) carry their owning shard in the top 8 bits; the low
// shardIDShift bits index the shard's slot table. At K=1 the shard field is
// zero, so encoded ids equal raw slot indices.
const (
	shardIDShift = 24
	slotMask     = 1<<shardIDShift - 1

	// MaxShards bounds the progress-shard count. The id layout allows 256;
	// 16 matches the netfabric reader-shard clamp, and more progress
	// goroutines than cores is never a win.
	MaxShards = 16
)

// encodeID stamps this endpoint's shard index into a slot-table id before
// it goes on the wire.
func (e *Endpoint) encodeID(slot uint32) uint32 {
	return e.idBits | slot
}

// ShardOfPeer is the peer→shard steering hash: plain modulo, which is a
// perfect split for the dense 0..size-1 rank space. Both directions of a
// pair use it — a send to dst posts on ShardOfPeer(dst), an arrival from
// src delivers to ShardOfPeer(src) — so shard i on every rank services
// exactly the peers congruent to i mod k.
func ShardOfPeer(peer, k int) int {
	if k <= 1 {
		return 0
	}
	return peer % k
}

// ShardOfTag is the tag→shard steering hash (Fibonacci multiplicative):
// adjacent tags scatter, so a framework's densely allocated field tags
// spread across shards instead of clumping.
func ShardOfTag(tag uint32, k int) int {
	if k <= 1 {
		return 0
	}
	x := uint64(tag) * 0x9e3779b97f4a7c15
	return int((x >> 33) % uint64(k))
}

// shardRoute builds the fabric-level frame route for K shards. Control
// frames follow the shard bits of the request id they carry; data frames
// (EGR/RTS) follow the steering mode. The modulo guards a corrupt or
// foreign shard field — misrouting such a frame to shard 0 beats indexing
// out of range.
func shardRoute(k int, byTag bool) func(*fabric.Frame) int {
	return func(f *fabric.Frame) int {
		if f.Kind == fabric.KindPutDone {
			return int(uint32(f.Header)>>shardIDShift) % k
		}
		switch headerType(f.Header) {
		case RTR: // meta hi = the sender-side sid this RTR answers
			return int(metaHi(f.Meta)>>shardIDShift) % k
		case FRG: // header tag = the receiver-side rid being filled
			return int(headerTag(f.Header)>>shardIDShift) % k
		}
		if byTag {
			return ShardOfTag(headerTag(f.Header), k)
		}
		return ShardOfPeer(f.Src, k)
	}
}

// Sharded is a rank's set of progress shards behind one API. With
// Options.Shards ≤ 1 it is a zero-overhead wrapper around a single
// Endpoint; above that it partitions the provider, the packet pool and the
// queues K ways and runs K progress goroutines under one Serve call.
//
// Concurrency contract: SendEnq is safe from any registered worker (it
// routes to the owning shard's own MPMC structures); RecvDeq is safe from
// any goroutine but, exactly like Endpoint.RecvDeq, delivery order is only
// meaningful with a single consumer. Progress is safe from any goroutine
// (each shard has its own progress lock). Serve must be called once.
type Sharded struct {
	eps   []*Endpoint
	k     int
	byTag bool
	rr    atomic.Uint32 // RecvDeq round-robin cursor
}

// ceilDiv splits a rank-global budget across k shards without shrinking the
// total below the original.
func ceilDiv(n, k int) int { return (n + k - 1) / k }

// NewSharded builds a rank's progress shards over fep. Options carry the
// rank-global budgets (PoolPackets, QueueDepth, MaxOutstanding); each shard
// gets a ceil(1/K) partition with floors that keep a thin shard usable.
// Shards > 1 requires fep to implement fabric.Sharder; a provider that
// cannot shard falls back to K=1 rather than failing.
func NewSharded(fep fabric.Provider, opt Options) *Sharded {
	opt.fill()
	k := opt.Shards
	if k < 1 {
		k = 1
	}
	if k > MaxShards {
		k = MaxShards
	}
	sharder, ok := fep.(fabric.Sharder)
	if !ok {
		k = 1
	}
	if k == 1 {
		opt.shardIdx, opt.shardTotal = 0, 1
		return &Sharded{eps: []*Endpoint{NewEndpoint(fep, opt)}, k: 1}
	}

	route := fabric.ShardRoute{Frame: shardRoute(k, opt.ShardByTag)}
	if !opt.ShardByTag {
		// Peer steering lets the provider partition per-flow housekeeping
		// (each view flushes only the flows its shard owns).
		route.Peer = func(peer int) int { return ShardOfPeer(peer, k) }
	}
	views := sharder.ShardViews(k, route)

	per := opt
	per.PoolPackets = max(ceilDiv(opt.PoolPackets, k), 32)
	per.QueueDepth = max(ceilDiv(opt.QueueDepth, k), 64)
	per.MaxOutstanding = max(ceilDiv(opt.MaxOutstanding, k), 64)
	if per.MaxOutstanding > slotMask+1 {
		per.MaxOutstanding = slotMask + 1
	}

	s := &Sharded{eps: make([]*Endpoint, k), k: k, byTag: opt.ShardByTag}
	for i := range s.eps {
		pi := per
		pi.shardIdx, pi.shardTotal = i, k
		s.eps[i] = NewEndpoint(views[i], pi)
		if i > 0 && s.eps[i].park {
			// One owner waits for the whole rank, so every shard rings the
			// same owner bell.
			s.eps[i].owner = s.eps[0].owner
		}
	}
	return s
}

// Arrivals returns the doorbell an owner may block on when RECV-DEQ and its
// pending requests gave it nothing: it rings after every productive
// progress pass on any shard, and on a provider whose server polls
// (netfabric) also on every handled arrival. It may ring with nothing new
// pending. Nil when the provider has no doorbell. One goroutine should wait
// on it.
func (s *Sharded) Arrivals() <-chan struct{} {
	if b := s.eps[0].owner; b != nil {
		return b.Arrivals()
	}
	return nil
}

// Parks reports whether the provider is a parking one (fabric.Parker):
// idle servers park on its doorbell, and Arrivals is the endpoint's own.
func (s *Sharded) Parks() bool { return s.eps[0].park }

// Shards returns the number of progress shards (≥ 1).
func (s *Sharded) Shards() int { return s.k }

// Shard returns shard i's endpoint (tests and diagnostics).
func (s *Sharded) Shard(i int) *Endpoint { return s.eps[i] }

// Rank returns the host rank.
func (s *Sharded) Rank() int { return s.eps[0].Rank() }

// EagerLimit returns the eager/rendezvous protocol threshold in bytes.
func (s *Sharded) EagerLimit() int { return s.eps[0].EagerLimit() }

// Tracer returns the lifecycle tracer (nil when tracing is off). All
// shards share one tracer: events interleave into a single per-rank ring.
func (s *Sharded) Tracer() *tracing.Tracer { return s.eps[0].Tracer() }

// ShardFor returns the shard that owns traffic to dst on tag — the shard
// whose pool and queues a send will use, and whose progress goroutine will
// see the reply.
func (s *Sharded) ShardFor(dst int, tag uint32) *Endpoint {
	if s.k == 1 {
		return s.eps[0]
	}
	if s.byTag {
		return s.eps[ShardOfTag(tag, s.k)]
	}
	return s.eps[ShardOfPeer(dst, s.k)]
}

// RegisterWorker registers one compute worker across every shard's pool in
// lockstep and returns the common worker id. All external registration must
// go through here (never a shard pool directly), so the id means the same
// locality slot on every shard.
func (s *Sharded) RegisterWorker() int {
	w := s.eps[0].Pool().RegisterWorker()
	for _, e := range s.eps[1:] {
		if got := e.Pool().RegisterWorker(); got != w {
			panic("lci: sharded pools registered out of lockstep (register workers only via Sharded.RegisterWorker)")
		}
	}
	return w
}

// SendEnq routes the send to the owning shard (see ShardFor) and enqueues
// it there; semantics are exactly Endpoint.SendEnq.
func (s *Sharded) SendEnq(worker, dst int, tag uint32, buf []byte) (*Request, bool) {
	return s.ShardFor(dst, tag).SendEnq(worker, dst, tag, buf)
}

// RecvDeq returns the next incoming message from any shard, round-robin so
// a busy shard cannot starve the others. Per-shard arrival order is
// preserved; cross-shard order is unspecified (it already was between
// peers).
func (s *Sharded) RecvDeq() (*Request, bool) {
	if s.k == 1 {
		return s.eps[0].RecvDeq()
	}
	start := s.rr.Add(1)
	for i := uint32(0); i < uint32(s.k); i++ {
		if r, ok := s.eps[(start+i)%uint32(s.k)].RecvDeq(); ok {
			return r, true
		}
	}
	return nil, false
}

// PendingIncoming sums the racy queue-depth estimate across shards.
func (s *Sharded) PendingIncoming() int {
	n := 0
	for _, e := range s.eps {
		n += e.PendingIncoming()
	}
	return n
}

// Stats sums the endpoint counters across shards.
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, e := range s.eps {
		st := e.Stats()
		out.EagerSends += st.EagerSends
		out.RendezvousSends += st.RendezvousSends
		out.SendFailures += st.SendFailures
		out.Receives += st.Receives
	}
	return out
}

// Serve runs one progress goroutine per shard until stop closes. Shard 0
// runs on the calling goroutine (so `go s.Serve(stop)` costs K goroutines
// total, exactly like the unsharded layer at K=1).
func (s *Sharded) Serve(stop <-chan struct{}) {
	var wg sync.WaitGroup
	for _, e := range s.eps[1:] {
		wg.Add(1)
		go func(e *Endpoint) {
			defer wg.Done()
			e.Serve(stop)
		}(e)
	}
	s.eps[0].Serve(stop)
	wg.Wait()
}

// Progress runs one pass on every shard whose progress lock is free (see
// Endpoint.Progress) and reports whether any of them did work. Shards
// whose lock is held are skipped, not waited for.
func (s *Sharded) Progress() bool {
	worked := false
	for _, e := range s.eps {
		if e.Progress() {
			worked = true
		}
	}
	return worked
}

// Drain progresses every shard until none reports work, for orderly
// shutdown after Serve has stopped. One quiet sweep is not proof — shard A
// may complete a send whose control frame then lands on shard B — but a
// full pass with no work on any shard is: nothing in flight can appear
// without some shard working first. Each pass waits for its shard's lock.
func (s *Sharded) Drain() {
	for {
		worked := false
		for _, e := range s.eps {
			if e.progressWait() {
				worked = true
			}
		}
		if !worked {
			return
		}
	}
}
