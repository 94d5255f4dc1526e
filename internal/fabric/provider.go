package fabric

// Provider is the set of network verbs the communication runtimes are built
// on — the paper's claim that LCI "requires only a few primitive network
// operations" made concrete as an interface. The simulated fabric's
// *Endpoint implements it in-process; internal/netfabric implements it over
// real UDP sockets. internal/core, internal/comm and internal/mpi are
// written against this interface and run unmodified over either backend.
//
// Contract (shared by both backends):
//
//   - Send and Put may be called from any goroutine of the owning host;
//     Poll/PollBatch are normally driven by a single progress thread.
//   - Send/Put fail with ErrResource when the destination cannot accept the
//     operation right now (receive ring full / no advertised credit); the
//     operation had no effect and must be retried — never treated as fatal.
//   - Put fails with ErrNoRDMA on transports without remote-write support;
//     callers fall back to fragmented eager sends.
//   - Frames handed out by Poll/PollBatch are owned by the consumer until
//     Release, which recycles the frame to its provider's pool.
type Provider interface {
	// Rank returns this endpoint's host rank.
	Rank() int
	// Size returns the number of hosts on the transport.
	Size() int
	// EagerLimit returns the maximum payload of a single Send.
	EagerLimit() int
	// HasRDMA reports whether Put is supported.
	HasRDMA() bool

	// Send injects an eager message to dst; the payload is copied onto the
	// wire, so the caller's buffer is reusable on return.
	Send(dst int, header, meta uint64, data []byte) error
	// RegisterRegion registers buf for remote Put access.
	RegisterRegion(buf []byte) (uint32, error)
	// DeregisterRegion releases an rkey.
	DeregisterRegion(rkey uint32)
	// Put writes data into dst's registered region and delivers a
	// KindPutDone frame carrying imm.
	Put(dst int, rkey uint32, offset int, data []byte, imm uint64) error

	// Poll removes and returns one incoming frame, or nil.
	Poll() *Frame
	// PollBatch drains up to len(dst) incoming frames and returns the
	// number stored.
	PollBatch(dst []*Frame) int
	// Pending returns a racy estimate of queued incoming frames.
	Pending() int

	// Stats returns a snapshot of the endpoint's wire-level counters.
	Stats() Stats
}

var _ Provider = (*Endpoint)(nil)

// ShardRoute tells a sharded provider which progress shard owns what. A
// route must be pure and stable: the same frame (or peer) always maps to
// the same shard, on every rank, for the whole run.
type ShardRoute struct {
	// Frame returns the shard index in [0,K) that must consume f. It runs
	// on the provider's delivery path (reader goroutines, or inside any
	// view's Poll), so it must be cheap, safe for concurrent use and must
	// not retain f.
	Frame func(f *Frame) int
	// Peer, when non-nil, returns the shard that owns all traffic exchanged
	// with peer. Providers with per-peer state (flows, retransmit queues)
	// use it to partition housekeeping so each shard view only touches the
	// flows it owns. Nil means ownership is not peer-aligned (tag sharding)
	// and every view may service every peer.
	Peer func(peer int) int
}

// Sharder is implemented by providers that can split frame delivery across
// K progress shards. ShardViews partitions the provider's receive side into
// K rings selected by route and returns K Provider views: view i's
// Poll/PollBatch/Pending drain only shard i's ring, while Send/Put/regions
// and wire-level Stats remain rank-global (any view may send). ShardViews
// must be called at most once, before traffic, with k ≥ 1; frames already
// queued at the time of the call surface on view 0.
type Sharder interface {
	ShardViews(k int, route ShardRoute) []Provider
}

// Doorbell is implemented by providers that can wake an idle consumer
// instead of making it poll on a timer. The provider rings a one-slot
// doorbell after it handles arrivals (a burst of datagrams, data or ack,
// or a delivered frame), so a loop that found nothing to do can block on
// Arrivals until the network has news. A ring while the slot is full is
// absorbed: the doorbell says "look again", not how often. Ring lets a
// consumer re-arm it, for instance after a progress pass that moved work
// another goroutine is waiting for; a spurious ring costs one empty look.
// A provider's sharded views share its doorbell unless they implement
// Doorbell themselves, and one goroutine is expected to wait on each
// doorbell.
type Doorbell interface {
	Arrivals() <-chan struct{}
	Ring()
}

// Parker is implemented by doorbell providers whose doorbell covers every
// event that needs a progress pass: a Poll or PollBatch that finds nothing
// has no other duty (no inline socket receive, no ack or transmit timers),
// so an idle progress server may block on Arrivals instead of polling. The
// simulated fabric and its shard views are such providers; netfabric is
// not, because its Poll also drives the inline receive, flushes delayed
// acks and sends deferred transmits. Implementing the interface is the
// whole signal; its method does nothing.
type Parker interface {
	Doorbell
	// DoorbellCoversIdle marks the provider; it has no effect.
	DoorbellCoversIdle()
}

// RingBell rings a one-slot doorbell channel without blocking; a full slot
// absorbs the ring.
func RingBell(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}
