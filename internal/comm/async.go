package comm

// Asynchronous point-to-point messaging on reserved tags — the serving
// path's traffic shape (DESIGN.md §14). Exchange models bulk-synchronous
// supersteps: both sides agree on a tag sequence and epochs keep rounds
// apart. A long-lived query service has no such agreement — any rank may
// send a sub-query or a reply to any other at any time, with many queries
// in flight — so reserved tags carry free-running traffic instead: a fixed
// epoch (no per-tag call counter) and no expectation bookkeeping. Messages
// simply accumulate in the layer's stash until the owner polls them out.
//
// The tag must come from cluster's reserved band, which no framework
// allocates from, so async traffic can never collide with a BSP exchange.

// AsyncLayer is implemented by layers that support non-collective
// point-to-point messaging on reserved tags. Like Exchange, PostTag and
// RecvTag must be driven by a single goroutine per layer (the serving
// loop); they may interleave with Exchange calls from that same goroutine.
type AsyncLayer interface {
	Layer
	// PostTag sends buf (allocated with AllocBuf; ownership transfers to
	// the layer) to peer on the reserved base tag. It retries internally on
	// back-pressure (ErrResource / pool exhaustion) and returns once the
	// send is enqueued; delivery completes asynchronously.
	PostTag(peer int, tag uint32, buf []byte)
	// RecvTag returns the next message pending on the reserved base tag,
	// polling the network once if none is stashed. The caller must Release
	// the message. ok == false means nothing is pending right now.
	RecvTag(tag uint32) (Message, bool)
}

// Doorbell is implemented by layers and streams whose transport signals
// arrivals. An owner whose RecvTag or RecvMsg calls found nothing may block
// on Arrivals until the transport has handled new traffic, instead of
// polling on a timer; the channel may also fire when nothing new is
// pending. Arrivals returns nil when the transport has no doorbell. One
// goroutine should wait on it.
type Doorbell interface {
	Arrivals() <-chan struct{}
}

var (
	_ Doorbell = (*LCILayer)(nil)
	_ Doorbell = (*LCIStream)(nil)
)

// asyncEff is the fixed effective tag async traffic travels on: epoch 0 of
// the reserved base tag. Reserved tags never go through epochs.next, so the
// value cannot collide with any Exchange round.
func asyncEff(tag uint32) uint32 { return effTag(tag, 0) }

// PostTag implements AsyncLayer.
func (l *LCILayer) PostTag(peer int, tag uint32, buf []byte) {
	l.met.msgBytes.Observe(int64(len(buf)))
	l.emit(l.workers[0], peer, asyncEff(tag), buf, true)
}

// RecvTag implements AsyncLayer. On a stash miss it polls with one inline
// progress pass if RECV-DEQ is empty (see pollInline).
func (l *LCILayer) RecvTag(tag uint32) (Message, bool) {
	eff := asyncEff(tag)
	if m, ok := l.stash.take(eff); ok {
		return m, true
	}
	l.pollInline()
	return l.stash.take(eff)
}

// Arrivals implements Doorbell: the rank's owner doorbell
// (lci.Sharded.Arrivals), rung after every productive progress pass. On a
// parking provider (the simulated fabric) it is separate from the
// provider's doorbell, which the parked communication server waits on; on
// netfabric it is the provider's. Nil when the provider has none.
func (l *LCILayer) Arrivals() <-chan struct{} { return l.ep.Arrivals() }
