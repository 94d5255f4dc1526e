// Package netfabric is a real-network fabric provider: the same verbs the
// in-process simulator exposes (fabric.Provider), implemented over UDP
// sockets. It is the step from "simulation of the paper" to "distributed
// runtime": internal/core, internal/comm and internal/mpi run unmodified
// over it, and cmd/lci-launch spawns one OS process per rank over loopback.
//
// UDP gives none of what the simulator gave for free, so the provider
// supplies it in software (DESIGN.md §9):
//
//   - Reliability: a per-peer sliding window of sequence-numbered datagrams
//     with cumulative acks, retransmit timers and exponential backoff.
//   - Back-pressure: receiver-advertised message credits. A sender out of
//     credit (or out of window) gets fabric.ErrResource — the same
//     retriable failure LCI is built around, now produced by a real wire.
//   - Framing: messages larger than the UDP MTU are fragmented into
//     consecutive sequence numbers and reassembled into pooled frames
//     (the PR-1 zero-allocation receive path, via fabric.NewProviderFrame).
//   - No RDMA: Put fails with fabric.ErrNoRDMA, exercising the upper
//     layers' fragmented-send rendezvous fallback end-to-end.
//
// The hot path amortizes per-datagram costs three ways (DESIGN.md §10):
// outgoing packets queue per destination and flush as one vectored
// sendmmsg burst (the reader pulls bursts with recvmmsg), every data packet
// piggybacks the reverse direction's cumulative ack + credit so
// bidirectional traffic needs no standalone ack datagrams, and the
// retransmit timeout adapts per flow from measured ack round trips
// (RFC 6298 with Karn's rule) instead of a fixed guess.
//
// A Fault hook injects loss, duplication and reordering on outgoing
// datagrams for robustness tests.
package netfabric

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcigraph/internal/concurrent"
	"lcigraph/internal/fabric"
	"lcigraph/internal/tracing"
)

// Fixed transport sizes, the same on every rank of every job.
const (
	// wireMTU is the max datagram size, wire header included: the length of
	// every encode buffer.
	wireMTU = 1400
	// fragChunk is the payload bytes per DATA datagram.
	fragChunk = wireMTU - dataHdrLen
	// sockBufBytes sizes the kernel socket buffers at New.
	sockBufBytes = 1 << 20
	// maxRegions is the local region table size.
	maxRegions = 128
)

// Config describes one rank's endpoint. Window, Credits and EagerLimit must
// agree across all ranks of a job (the launcher and loopback group
// guarantee this).
type Config struct {
	Rank  int
	Addrs []string // UDP address of every rank, indexed by rank

	// Conn, when non-nil, is a pre-bound socket for this rank (the SPMD
	// launcher binds all sockets before spawning and passes them down, so
	// there is no startup race). When nil, New binds Addrs[Rank].
	Conn net.PacketConn

	EagerLimit int           // max payload of one Send (default 8 KiB)
	Window     int           // max unacked packets per peer flow (default 256)
	Credits    int           // max delivered-but-unreleased messages per peer (default 128)
	RTO        time.Duration // initial retransmit timeout, used until the first RTT sample (default 5ms)
	MinRTO     time.Duration // adaptive RTO floor (default min(2ms, RTO))
	MaxRTO     time.Duration // retransmit backoff cap (default 50ms)
	// DrainTimeout bounds how long Close keeps the socket (and retransmit
	// timer) alive waiting for every in-flight packet to be acked, so a
	// lossy wire cannot swallow the job's final messages (default 1s).
	DrainTimeout time.Duration
	Fault        Fault // outgoing-datagram fault injection

	// TxBatch is the pending-transmit threshold at which a Send flushes its
	// flow inline; below it, packets wait for the next progress poll or
	// housekeeping tick and go out as one vectored burst (default 32).
	TxBatch int
	// AckEvery forces a standalone ack after this many received data
	// packets on a one-way flow, bounding sender window occupancy between
	// delayed-ack ticks (default max(8, Credits/4)).
	AckEvery int
	// ReaderShards is the number of receive sockets sharing this endpoint's
	// address via SO_REUSEPORT, each drained by its own reader goroutine (the
	// kernel hashes peers across them). Default min(4, NumCPU), clamped to
	// [1,16]; silently degrades to a single reader when the platform or the
	// primary socket cannot join a reuseport group.
	ReaderShards int
	// EndpointShards is the number of progress shards the upper layer will
	// run over this provider (fabric.Sharder views). It does not change the
	// provider's behavior by itself; it raises ReaderShards to match, so
	// kernel-side reuseport steering and upper-layer progress sharding have
	// the same parallelism, and it is reported by Capabilities. Default 1.
	// The SPMD launcher sets it from -shards.
	EndpointShards int

	// Portable tiers for kernels without the fast paths (the launcher's
	// -no-batch-io and -no-gso).
	DisableBatchIO bool // one syscall per datagram, flush every Send (pre-batching path)
	DisableGSO     bool // no UDP_SEGMENT trains / UDP_GRO coalescing (plain batch I/O)

	// Tracer receives transport lifecycle events (retransmits, ack window
	// advances, credit stalls, stall warnings) and the flight-recorder dump
	// when the stall detector fires or Close's drain times out. Nil: tracing
	// off.
	Tracer *tracing.Tracer

	// StallRTOs is the stall detector's no-ack-progress threshold: a
	// structured warning fires once a flow's oldest unacked packet has been
	// retransmitted this many times without the cumulative ack moving —
	// i.e. the peer has been silent for the sum of that many backed-off
	// RTOs. One warning per stall episode (default 8).
	StallRTOs int
	// CreditStallTimeout is the zero-credit threshold: a warning fires when
	// a flow's sends have been refused for lack of receiver credit for this
	// long without the peer raising the limit (default 500ms).
	CreditStallTimeout time.Duration
}

func (c *Config) fill() error {
	if c.EagerLimit <= 0 {
		c.EagerLimit = 8 << 10
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.Credits <= 0 {
		c.Credits = 128
	}
	if c.RTO <= 0 {
		// The seed RTO holds until the first RTT sample. Loopback RTT is
		// microseconds, but on an oversubscribed host the real ack latency
		// is OS scheduling, so a too-tight seed mostly produces spurious
		// retransmits before the estimator has data.
		c.RTO = 5 * time.Millisecond
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 2 * time.Millisecond
		if c.RTO < c.MinRTO {
			// An explicitly aggressive seed is a statement of intent (tests
			// use 1ms for fast recovery); don't floor above it.
			c.MinRTO = c.RTO
		}
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 50 * time.Millisecond
	}
	if c.MaxRTO < c.RTO {
		c.MaxRTO = c.RTO
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = time.Second
	}
	if c.TxBatch <= 0 {
		c.TxBatch = 32
	}
	if c.DisableBatchIO {
		c.TxBatch = 1 // flush every Send: the original per-packet path
	}
	if c.AckEvery <= 0 {
		c.AckEvery = c.Credits / 4
		if c.AckEvery < 8 {
			c.AckEvery = 8
		}
	}
	if c.ReaderShards <= 0 {
		c.ReaderShards = min(4, runtime.NumCPU())
	}
	if c.EndpointShards <= 0 {
		c.EndpointShards = 1
	}
	if c.EndpointShards > 16 {
		c.EndpointShards = 16
	}
	// One receive socket per progress shard at minimum: the kernel spreads
	// peers across the reuseport group, the route spreads them across the
	// progress shards, and matching counts keep the two alignable.
	if c.ReaderShards < c.EndpointShards {
		c.ReaderShards = c.EndpointShards
	}
	if c.ReaderShards > 16 {
		c.ReaderShards = 16
	}
	if c.DisableBatchIO {
		c.DisableGSO = true // the offload tier rides the sendmmsg driver
	}
	if c.StallRTOs <= 0 {
		c.StallRTOs = 8
	}
	if c.CreditStallTimeout <= 0 {
		c.CreditStallTimeout = 500 * time.Millisecond
	}
	if c.Rank < 0 || c.Rank >= len(c.Addrs) {
		return fmt.Errorf("netfabric: rank %d outside address list of %d", c.Rank, len(c.Addrs))
	}
	return nil
}

// readBatchLen is the number of datagrams one recvmmsg may pull.
const readBatchLen = 16

// Provider is one rank's UDP endpoint. It implements fabric.Provider.
type Provider struct {
	rank, size int
	eagerLimit int
	window     uint32
	credits    int
	seedRTO    time.Duration
	minRTO     time.Duration
	maxRTO     time.Duration
	drainTO    time.Duration
	tick       time.Duration // housekeeping / delayed-ack cadence
	txBatch    int
	ackEvery   int
	readBufLen int

	conn  net.PacketConn
	peers []net.Addr
	flows []*flow // indexed by peer rank; nil at self

	// bio is the vectored-I/O driver; nil when unavailable (non-Linux,
	// non-UDP socket, DisableBatchIO) or after a kernel refusal downgraded
	// the provider to the one-syscall-per-datagram path at runtime.
	bio atomic.Pointer[mmsgIO]

	// Segmentation-offload tier (DESIGN.md §13). gsoOn flips off permanently
	// the first time the kernel rejects a UDP_SEGMENT train; gro and rxq
	// record what the receive sockets negotiated at New.
	gsoOn atomic.Bool
	gro   bool
	rxq   bool

	// shards are the receive sockets: shard 0 wraps the primary (transmit)
	// socket; extras joined the address via SO_REUSEPORT so the kernel
	// spreads incoming peers across their reader goroutines.
	shards []*readerShard

	// GSO planning scratch, guarded by xmitMu like the burst scratch below.
	trainScratch []gsoTrain

	// Dirty-flow counters: a receive or release only touches its own flow;
	// the housekeeping pass skips all-flow scans entirely while these are
	// zero.
	ackDueFlows atomic.Int64 // flows with ackDue set
	txPendFlows atomic.Int64 // flows with unflushed pending packets

	// xmitMu serializes wire bursts (the kernel serializes socket sends
	// anyway) and guards the shared burst scratch.
	xmitMu      sync.Mutex
	wireScratch [][]byte
	dstScratch  []int

	// rs is the delivery side: one ring per progress shard plus the route
	// that picks the ring for a completed message. Immutable and swapped
	// atomically by ShardViews; a single unrouted ring until then.
	rs       atomic.Pointer[ringSet]
	epShards int                             // configured progress-shard count (Capabilities)
	frames   *concurrent.MPMC[*fabric.Frame] // provider frame free-list

	fault *faultInjector

	// Self-sends bypass the wire but respect the same credit quota so the
	// delivery ring can never overflow (its capacity is size × credits).
	selfDelivered atomic.Int64
	selfConsumed  atomic.Int64

	regMu   sync.Mutex
	regions []bool

	closed atomic.Bool
	wg     sync.WaitGroup

	// bell is the arrival doorbell (fabric.Doorbell), rung after every
	// handled burst, by a reader goroutine or inline by a poller.
	bell chan struct{}

	sendFrames     atomic.Int64
	sendBytes      atomic.Int64
	polls          atomic.Int64
	pollHits       atomic.Int64
	batchPolls     atomic.Int64
	sendRetries    atomic.Int64
	framesRecycled atomic.Int64
	retransmits    atomic.Int64
	dropped        atomic.Int64
	acksSent       atomic.Int64
	creditStalls   atomic.Int64
	sendBatches    atomic.Int64
	recvBatches    atomic.Int64
	gsoSends       atomic.Int64
	groCoalesced   atomic.Int64
	sockDrops      atomic.Int64
	piggyAcks      atomic.Int64
	delayedAcks    atomic.Int64
	sockErrors     atomic.Int64
	stallWarns     atomic.Int64
	inlineRx       atomic.Int64

	// tr is the lifecycle tracer (nil = dark path); stallRTOs and
	// creditStallTO parameterize the stall detector, which runs on the
	// housekeeping tick regardless of tracing so the stalls_total counter
	// works with the tracer off.
	tr            *tracing.Tracer
	stallRTOs     int
	creditStallTO time.Duration
}

var _ fabric.Provider = (*Provider)(nil)
var _ fabric.Sharder = (*Provider)(nil)
var _ fabric.Doorbell = (*Provider)(nil)

// ringSet is the provider's delivery side: one ring per progress shard and
// the route that picks a completed message's ring. Immutable — ShardViews
// installs a replacement with one atomic pointer swap, so reader goroutines
// never observe a half-built slice. Every ring is sized size×credits, the
// same capacity the single ring had, so the credit-quota argument that the
// ring can never overflow holds per shard no matter how the route skews.
type ringSet struct {
	rings []*concurrent.MPMC[*fabric.Frame]
	route func(*fabric.Frame) int // nil: everything lands on rings[0]
}

// pick returns the ring an inbound frame belongs on, clamping a bad route
// result to shard 0 rather than dropping traffic.
func (rs *ringSet) pick(f *fabric.Frame) *concurrent.MPMC[*fabric.Frame] {
	if rs.route == nil || len(rs.rings) == 1 {
		return rs.rings[0]
	}
	i := rs.route(f)
	if i < 0 || i >= len(rs.rings) {
		i = 0
	}
	return rs.rings[i]
}

// deliver routes one completed message onto its owning shard's ring. False
// means that ring is full — with correct credit accounting this cannot
// happen, and both callers treat it as a protocol bug.
func (p *Provider) deliver(fr *fabric.Frame) bool {
	return p.rs.Load().pick(fr).Enqueue(fr)
}

// readerShard is one receive socket plus its two vectored read drivers: the
// reader goroutine's blocking one (bio) and the progress path's
// non-blocking one (poll, with its own buffers; pollMu keeps concurrent
// pollers off them). Shard 0 wraps the provider's primary socket (which also
// transmits); extra shards are SO_REUSEPORT siblings. rx is read by
// telemetry.
type readerShard struct {
	idx  int
	conn net.PacketConn
	bio  atomic.Pointer[mmsgIO] // nil = portable ReadFrom path for this shard
	rx   atomic.Int64           // wire datagrams handled by this shard
	ovfl atomic.Uint32          // last seen SO_RXQ_OVFL cumulative drop count

	pollMu sync.Mutex
	poll   *mmsgIO  // nil on the portable path: no inline receive
	pollRx *rxBatch // poll's bound buffers
}

// rxBatch is one receive driver's buffer set: readBatchLen datagram buffers
// plus the per-slot length and ancillary data a burst read fills in.
type rxBatch struct {
	bufs  [][]byte
	sizes []int
	cms   []rxCmsg
}

func newRxBatch(bufLen int) *rxBatch {
	rb := &rxBatch{
		bufs:  make([][]byte, readBatchLen),
		sizes: make([]int, readBatchLen),
		cms:   make([]rxCmsg, readBatchLen),
	}
	for i := range rb.bufs {
		rb.bufs[i] = make([]byte, bufLen)
	}
	return rb
}

// New builds a provider and starts its socket reader. The reader goroutine
// also runs the retransmit, delayed-ack and credit-refresh timers, so the
// provider makes reliability progress even when the upper layer's progress
// thread stalls.
func New(cfg Config) (*Provider, error) {
	explicitTxBatch := cfg.TxBatch > 0
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p := &Provider{
		rank:          cfg.Rank,
		size:          len(cfg.Addrs),
		eagerLimit:    cfg.EagerLimit,
		window:        uint32(cfg.Window),
		credits:       cfg.Credits,
		seedRTO:       cfg.RTO,
		minRTO:        cfg.MinRTO,
		maxRTO:        cfg.MaxRTO,
		drainTO:       cfg.DrainTimeout,
		txBatch:       cfg.TxBatch,
		ackEvery:      cfg.AckEvery,
		conn:          cfg.Conn,
		tr:            cfg.Tracer,
		stallRTOs:     cfg.StallRTOs,
		creditStallTO: cfg.CreditStallTimeout,
		bell:          make(chan struct{}, 1),
	}
	// The tick paces delayed acks and the retransmit scan. Half the RTO
	// floor keeps timer resolution ahead of the tightest timeout; the
	// clamp bounds idle wakeups.
	p.tick = cfg.MinRTO / 2
	if p.tick > 500*time.Microsecond {
		p.tick = 500 * time.Microsecond
	}
	if p.tick < 100*time.Microsecond {
		p.tick = 100 * time.Microsecond
	}
	p.readBufLen = wireMTU + 64
	if p.readBufLen < 2048 {
		p.readBufLen = 2048
	}
	p.epShards = cfg.EndpointShards
	p.rs.Store(&ringSet{rings: []*concurrent.MPMC[*fabric.Frame]{
		concurrent.NewMPMC[*fabric.Frame](p.size * p.credits),
	}})
	p.frames = concurrent.NewMPMC[*fabric.Frame](p.size * p.credits)
	if cfg.Fault.enabled() {
		p.fault = newFaultInjector(cfg.Fault)
	}
	if p.conn == nil {
		// SO_REUSEPORT on the primary bind is what lets the reader shards
		// join the same address below; harmless when shards end up at 1.
		c, err := ListenReusePort("udp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("netfabric: bind rank %d: %w", cfg.Rank, err)
		}
		p.conn = c
	}
	// A deep socket buffer absorbs vectored bursts; errors are ignored
	// (the reliability layer tolerates a shallow buffer, just less well).
	if sb, ok := p.conn.(interface {
		SetReadBuffer(int) error
		SetWriteBuffer(int) error
	}); ok {
		sb.SetReadBuffer(sockBufBytes)
		sb.SetWriteBuffer(sockBufBytes)
	}
	p.peers = make([]net.Addr, p.size)
	p.flows = make([]*flow, p.size)
	for r, a := range cfg.Addrs {
		if r == p.rank {
			continue
		}
		addr, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			p.conn.Close()
			return nil, fmt.Errorf("netfabric: rank %d address %q: %w", r, a, err)
		}
		p.peers[r] = addr
		p.flows[r] = newFlow(r, p.credits, p.seedRTO)
	}
	if !cfg.DisableBatchIO {
		p.bio.Store(newBatchIO(p.conn, p.peers))
	}

	// ---- segmentation-offload tier + receive shards (DESIGN.md §13) ----
	// Every step degrades silently: an old kernel, an exotic socket or a
	// primary bound without SO_REUSEPORT leaves the provider on the plain
	// batch-I/O path with a single reader, behaviorally identical.
	offload := offloadAvailable && !cfg.DisableGSO && p.bio.Load() != nil
	if offload && probeGSO(p.conn) {
		p.gsoOn.Store(true)
		if !explicitTxBatch {
			// With segmentation offload, the inline-flush threshold rises to
			// one full train so a fragment run reaches the kernel as a single
			// entry instead of several partial trains. Latency is unaffected:
			// any live poller still flushes whatever is pending (see Poll).
			if t := maxGSOBytes / wireMTU; t > p.txBatch {
				p.txBatch = t
			}
		}
	}
	s0 := &readerShard{idx: 0, conn: p.conn}
	if m := p.bio.Load(); m != nil {
		s0.bio.Store(m)
	}
	p.shards = append(p.shards, s0)
	for len(p.shards) < cfg.ReaderShards {
		c, err := ListenReusePort("udp", p.conn.LocalAddr().String())
		if err != nil {
			break // reuseport group unavailable: stay with the shards we have
		}
		if sb, ok := c.(interface{ SetReadBuffer(int) error }); ok {
			sb.SetReadBuffer(sockBufBytes)
		}
		s := &readerShard{idx: len(p.shards), conn: c}
		if !cfg.DisableBatchIO {
			if m := newReadIO(c); m != nil {
				s.bio.Store(m)
			}
		}
		p.shards = append(p.shards, s)
	}
	if offload {
		// GRO super-datagrams are only splittable with the gso_size cmsg,
		// which the portable ReadFrom path cannot see — so coalescing is
		// all-or-nothing across shards with a working recvmmsg driver.
		p.gro = true
		for _, s := range p.shards {
			if s.bio.Load() == nil || !enableGRO(s.conn) {
				p.gro = false
				break
			}
		}
		if !p.gro {
			for _, s := range p.shards {
				disableGRO(s.conn)
			}
		}
	}
	for _, s := range p.shards {
		if enableRxqOvfl(s.conn) {
			p.rxq = true
		}
	}
	if p.gro && p.readBufLen < groBufLen {
		p.readBufLen = groBufLen // a coalesced read can be a full UDP payload
	}
	// Progress-path receive drivers: a second non-blocking driver per shard
	// with a vectored reader. The portable tier has none and leaves receiving
	// to the reader goroutines.
	for _, s := range p.shards {
		if s.bio.Load() == nil {
			continue
		}
		if m := newReadIO(s.conn); m != nil {
			s.pollRx = newRxBatch(p.readBufLen)
			m.bindRead(s.pollRx.bufs)
			s.poll = m
		}
	}
	p.wg.Add(len(p.shards))
	for _, s := range p.shards {
		go p.reader(s)
	}
	return p, nil
}

// Addr returns the provider's bound socket address.
func (p *Provider) Addr() net.Addr { return p.conn.LocalAddr() }

// BatchIO reports whether the vectored sendmmsg/recvmmsg path is active.
func (p *Provider) BatchIO() bool { return p.bio.Load() != nil }

// GSO reports whether the UDP_SEGMENT send tier is currently active.
func (p *Provider) GSO() bool { return p.gsoOn.Load() }

// GRO reports whether the receive sockets negotiated UDP_GRO coalescing.
func (p *Provider) GRO() bool { return p.gro }

// ReaderShards returns the number of live receive shards (≥ 1).
func (p *Provider) ReaderShards() int { return len(p.shards) }

// ShardRx returns the wire datagrams handled by each receive shard.
func (p *Provider) ShardRx() []int64 {
	out := make([]int64, len(p.shards))
	for i, s := range p.shards {
		out[i] = s.rx.Load()
	}
	return out
}

// Capabilities summarizes the kernel fast-path tiers this endpoint
// negotiated, for launcher/CI logs.
func (p *Provider) Capabilities() string {
	return fmt.Sprintf("batchio=%v gso=%v gro=%v rxq_ovfl=%v shards=%d epshards=%d",
		p.BatchIO(), p.gsoOn.Load(), p.gro, p.rxq, len(p.shards), p.epShards)
}

// EndpointShards returns the configured progress-shard count (≥ 1).
func (p *Provider) EndpointShards() int { return p.epShards }

// Close drains in-flight packets, then stops the reader and closes the
// socket. The upper layers must be stopped first (a Send on a closed
// provider is a hard error).
//
// The drain is what makes teardown safe on a lossy wire: a rank that
// completes the job's final collective may reach Close within microseconds,
// long before the first RTO, so without it a dropped last datagram would
// never be retransmitted and the peer would block forever waiting for this
// rank's contribution. Close therefore keeps the socket and the reader's
// retransmit/ack machinery alive until every flow's unacked window is
// empty, bounded by DrainTimeout (a vanished peer must not wedge teardown).
func (p *Provider) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	if !p.drain() {
		// Unacked packets survived the drain window: a peer died or the
		// link is black-holing. Preserve the evidence before tearing down.
		p.tr.DumpNow(fmt.Sprintf("rank %d close: drain timed out with unacked packets", p.rank))
	}
	// Shard 0's conn is the primary socket; closing each conn unblocks its
	// reader, which exits on the resulting non-timeout error.
	var err error
	for _, s := range p.shards {
		if e := s.conn.Close(); e != nil && err == nil {
			err = e
		}
	}
	p.wg.Wait()
	return err
}

// drain blocks until no flow holds an unacked packet or the drain timeout
// expires, reporting whether every flow fully drained. Pending packets are
// pushed to the wire first; the reader goroutine is still running (the
// socket is open), so retransmit timers, incoming acks and outgoing
// ack/credit refreshes all keep making progress while we wait.
func (p *Provider) drain() bool {
	p.flushPending()
	deadline := time.Now().Add(p.drainTO)
	for {
		// Push any delayed acks out before (possibly) closing the socket: a
		// rank with nothing unacked itself would otherwise exit with the
		// peer's last packet unackable, forcing the peer to drain-timeout.
		p.flushAcks()
		pending := false
		for _, fl := range p.flows {
			if fl == nil {
				continue
			}
			fl.mu.Lock()
			n := fl.unacked.len()
			fl.mu.Unlock()
			if n > 0 {
				pending = true
				break
			}
		}
		if !pending {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ---- fabric.Provider identity ----

// Rank returns this endpoint's rank.
func (p *Provider) Rank() int { return p.rank }

// Size returns the number of ranks.
func (p *Provider) Size() int { return p.size }

// EagerLimit returns the maximum payload of one Send.
func (p *Provider) EagerLimit() int { return p.eagerLimit }

// HasRDMA reports false: UDP has no remote-write verb, so upper layers take
// the fragmented-send rendezvous fallback.
func (p *Provider) HasRDMA() bool { return false }

// ---- frame pool ----

func (p *Provider) getFrame() *fabric.Frame {
	fr, ok := p.frames.Dequeue()
	if !ok {
		fr = fabric.NewProviderFrame(make([]byte, p.eagerLimit), p.recycleFrame)
	}
	fr.Acquire()
	return fr
}

// recycleFrame is the Release hook of every frame this provider mints: it
// returns the frame to the free-list and credits the consumed message back
// to its flow, scheduling a credit re-advertisement to un-stall the sender.
func (p *Provider) recycleFrame(f *fabric.Frame) {
	src := f.Src
	f.Data = nil
	f.Header = 0
	f.Meta = 0
	p.framesRecycled.Add(1)
	if src == p.rank {
		p.selfConsumed.Add(1)
	} else if src >= 0 && src < p.size && p.flows[src] != nil {
		fl := p.flows[src]
		fl.consumed.Add(1)
		p.markAckDue(fl)
	}
	p.frames.Enqueue(f) // full free-list drops to the GC, pool stays a cache
}

// markAckDue flags fl for an ack/credit update, maintaining the dirty-flow
// count so housekeeping skips clean flows entirely.
func (p *Provider) markAckDue(fl *flow) {
	if !fl.ackDue.Swap(true) {
		p.ackDueFlows.Add(1)
	}
}

// ---- send path ----

// errClosed is returned for operations on a closed provider.
var errClosed = errors.New("netfabric: provider closed")

// Send injects an eager message to dst, fragmenting to the MTU. It fails
// with fabric.ErrResource when dst has advertised no remaining credit or
// the retransmit window is full — retriable back-pressure, exactly like the
// simulator's full receive ring.
//
// Packets do not necessarily hit the wire before Send returns: they queue
// on the destination flow and flush as one vectored burst when the pending
// count reaches TxBatch, on the next Poll/PollBatch (the progress loop), or
// at the latest on the housekeeping tick.
func (p *Provider) Send(dst int, header, meta uint64, data []byte) error {
	if p.closed.Load() {
		return errClosed
	}
	if len(data) > p.eagerLimit {
		return fmt.Errorf("netfabric: send of %d bytes exceeds eager limit %d", len(data), p.eagerLimit)
	}
	if dst < 0 || dst >= p.size {
		return fmt.Errorf("netfabric: bad destination rank %d", dst)
	}
	if dst == p.rank {
		return p.sendSelf(header, meta, data)
	}
	fl := p.flows[dst]
	nfrags := 1
	if len(data) > fragChunk {
		nfrags = (len(data) + fragChunk - 1) / fragChunk
	}

	fl.mu.Lock()
	if fl.msgsSent >= fl.creditLimit {
		episodeStart := fl.creditStallSince.IsZero()
		if episodeStart {
			fl.creditStallSince = time.Now()
		}
		fl.mu.Unlock()
		p.creditStalls.Add(1)
		p.sendRetries.Add(1)
		if episodeStart {
			p.tr.Record(tracing.EvCreditStall, dst, tracing.ProtoNone, len(data), 0)
		}
		return fabric.ErrResource
	}
	if fl.inFlight()+uint32(nfrags) > p.window {
		fl.mu.Unlock()
		p.sendRetries.Add(1)
		return fabric.ErrResource
	}
	off := 0
	for i := 0; i < nfrags; i++ {
		end := off + fragChunk
		if end > len(data) {
			end = len(data)
		}
		tx := fl.unacked.push(fl.nextSeq, wireMTU)
		tx.data = tx.data[:encodeData(tx.data, p.rank, fl.nextSeq, uint32(off), uint32(len(data)), header, meta, data[off:end])]
		fl.nextSeq++
		off = end
	}
	fl.msgsSent++
	fl.creditStallSince = time.Time{} // credit available again: episode over
	fl.creditStallWarned = false
	if fl.unsent == 0 {
		p.txPendFlows.Add(1)
	}
	fl.unsent += nfrags
	fl.pendTx.Store(int32(fl.unsent))
	if fl.unsent >= p.txBatch {
		p.flushFlowLocked(fl, time.Now())
	}
	fl.mu.Unlock()
	p.sendFrames.Add(1)
	p.sendBytes.Add(int64(len(data)))
	return nil
}

// sendSelf delivers a message to this rank's own ring without touching the
// wire, under the same credit quota as one remote peer.
func (p *Provider) sendSelf(header, meta uint64, data []byte) error {
	// Reserve before building so concurrent self-senders cannot overshoot
	// the quota the ring capacity was sized for.
	if p.selfDelivered.Add(1)-p.selfConsumed.Load() > int64(p.credits) {
		p.selfDelivered.Add(-1)
		p.sendRetries.Add(1)
		return fabric.ErrResource
	}
	fr := p.getFrame()
	fr.Kind = fabric.KindSend
	fr.Src = p.rank
	fr.Header = header
	fr.Meta = meta
	if len(data) > 0 {
		fr.Data = fr.Buffer()[:len(data)]
		copy(fr.Data, data)
	} else {
		fr.Data = nil
	}
	if !p.deliver(fr) {
		// Capacity is sized for the worst case; reaching here is a bug.
		panic("netfabric: delivery ring overflow on self-send")
	}
	p.sendFrames.Add(1)
	p.sendBytes.Add(int64(len(data)))
	return nil
}

// stampOutgoing refreshes a DATA packet's piggybacked ack/credit for fl's
// reverse direction immediately before it hits the wire (first transmission
// or retransmit), and retires any scheduled standalone ack for the flow —
// this packet carries the same information for free.
func (p *Provider) stampOutgoing(fl *flow, pkt []byte) {
	stampAck(pkt, fl.recvNext.Load(), fl.consumed.Load()+uint64(p.credits))
	fl.recvSinceAck.Store(0)
	if fl.ackDue.Swap(false) {
		p.ackDueFlows.Add(-1)
	}
	p.piggyAcks.Add(1)
}

// flushFlowLocked pushes fl's pending packets to the wire as one vectored
// burst, stamping each with the freshest piggybacked ack. fl.mu held.
func (p *Provider) flushFlowLocked(fl *flow, now time.Time) {
	if fl.unsent == 0 {
		return
	}
	burst := fl.scratch[:0]
	for i := fl.unacked.len() - fl.unsent; i < fl.unacked.len(); i++ {
		tx := fl.unacked.at(i)
		p.stampOutgoing(fl, tx.data)
		tx.lastTx = now
		burst = append(burst, tx.data)
	}
	fl.unsent = 0
	fl.pendTx.Store(0)
	p.txPendFlows.Add(-1)
	p.xmitBatch(fl.peer, burst)
	fl.scratch = burst[:0]
}

// flushPending flushes every flow holding pending packets. O(1) when no
// flow is dirty; called from the progress path (Poll/PollBatch), the
// housekeeping tick and Close.
func (p *Provider) flushPending() { p.flushFlows(p.flows) }

// flushFlows is flushPending over an arbitrary flow subset: shard views
// pass only the flows their shard owns, so K concurrent progress loops do
// not contend on each other's flow locks.
func (p *Provider) flushFlows(flows []*flow) {
	if p.txPendFlows.Load() == 0 {
		return
	}
	now := time.Now()
	for _, fl := range flows {
		if fl == nil || fl.pendTx.Load() == 0 {
			continue
		}
		fl.mu.Lock()
		p.flushFlowLocked(fl, now)
		fl.mu.Unlock()
	}
}

// xmitBatch writes a burst of datagrams to peer rank dst, applying fault
// injection per datagram. Callers may hold a flow lock; the burst lock is
// strictly inner.
func (p *Provider) xmitBatch(dst int, pkts [][]byte) {
	if len(pkts) == 0 {
		return
	}
	p.xmitMu.Lock()
	wire := p.wireScratch[:0]
	dsts := p.dstScratch[:0]
	if p.fault == nil {
		for _, pk := range pkts {
			wire = append(wire, pk)
			dsts = append(dsts, dst)
		}
	} else {
		for _, pk := range pkts {
			switch p.fault.decide() {
			case faultDrop:
				p.dropped.Add(1)
			case faultDup:
				wire = append(wire, pk, pk)
				dsts = append(dsts, dst, dst)
			case faultHold:
				if prev, prevDst := p.fault.hold(pk, dst); prev != nil {
					wire = append(wire, prev)
					dsts = append(dsts, prevDst)
				}
			default:
				wire = append(wire, pk)
				dsts = append(dsts, dst)
				if held, heldDst := p.fault.take(); held != nil {
					wire = append(wire, held)
					dsts = append(dsts, heldDst)
				}
			}
		}
	}
	p.writeWire(wire, dsts)
	p.wireScratch = wire[:0]
	p.dstScratch = dsts[:0]
	p.xmitMu.Unlock()
}

// writeWire moves datagrams to the kernel. With the GSO tier up, the burst
// is first collapsed into segment trains — one sendmmsg entry per run of
// same-destination datagrams, split back into wire datagrams by the kernel —
// then falls through tier by tier: plain sendmmsg when vectored I/O is up,
// one WriteTo each at the bottom. A failure other than back-pressure retires
// the failing tier permanently and re-sends the burst one tier down
// (duplicates are harmless; the window dedups).
func (p *Provider) writeWire(pkts [][]byte, dsts []int) {
	if len(pkts) == 0 {
		return
	}
	if m := p.bio.Load(); m != nil {
		if p.gsoOn.Load() && len(pkts) > 1 {
			trains := planTrains(p.trainScratch[:0], pkts, dsts)
			p.trainScratch = trains[:0]  // keep grown capacity
			if len(trains) < len(pkts) { // at least one multi-segment train
				if err := m.writeTrains(trains); err == nil {
					p.sendBatches.Add(1)
					for _, tr := range trains {
						if tr.n > 1 {
							p.gsoSends.Add(1)
						}
					}
					return
				}
				p.gsoOn.Store(false) // kernel rejected a train: retire the tier
			}
		}
		if err := m.writeBatch(pkts, dsts); err == nil {
			if len(pkts) > 1 {
				p.sendBatches.Add(1)
			}
			return
		}
		p.bio.Store(nil)
	}
	for i, pk := range pkts {
		p.conn.WriteTo(pk, p.peers[dsts[i]])
	}
}

// ---- RDMA verbs (absent on UDP) ----

// RegisterRegion keeps a local region table for API parity; the transport
// cannot serve remote writes into it.
func (p *Provider) RegisterRegion(buf []byte) (uint32, error) {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	for i, used := range p.regions {
		if !used {
			p.regions[i] = true
			return uint32(i), nil
		}
	}
	if len(p.regions) >= maxRegions {
		return 0, errors.New("netfabric: region table full")
	}
	p.regions = append(p.regions, true)
	return uint32(len(p.regions) - 1), nil
}

// DeregisterRegion releases an rkey.
func (p *Provider) DeregisterRegion(rkey uint32) {
	p.regMu.Lock()
	defer p.regMu.Unlock()
	if int(rkey) < len(p.regions) {
		p.regions[rkey] = false
	}
}

// Put fails with fabric.ErrNoRDMA: callers fall back to fragmented sends.
func (p *Provider) Put(int, uint32, int, []byte, uint64) error {
	return fabric.ErrNoRDMA
}

// ---- receive path ----

// Poll removes and returns one incoming frame, or nil. As the progress
// loop's heartbeat it also flushes any pending transmit bursts, so queued
// packets never wait for the housekeeping tick while a poller is live, and
// when the ring is empty it drains the sockets itself (see pollWire).
func (p *Provider) Poll() *fabric.Frame {
	p.flushPending()
	return p.pollRing(p.rs.Load().rings[0])
}

// PollBatch drains up to len(dst) incoming frames in one ring pass, flushing
// pending transmit bursts first and draining the sockets when the ring is
// empty (see Poll).
func (p *Provider) PollBatch(dst []*fabric.Frame) int {
	p.flushPending()
	return p.pollRingBatch(p.rs.Load().rings[0], dst)
}

// pollRing is Poll's receive half over one delivery ring: dequeue, and on a
// miss run one inline wire poll and retry.
func (p *Provider) pollRing(ring *concurrent.MPMC[*fabric.Frame]) *fabric.Frame {
	p.polls.Add(1)
	f, ok := ring.Dequeue()
	if !ok && p.pollWire() > 0 {
		f, ok = ring.Dequeue()
	}
	if !ok {
		return nil
	}
	p.pollHits.Add(1)
	return f
}

// pollRingBatch is pollRing for PollBatch.
func (p *Provider) pollRingBatch(ring *concurrent.MPMC[*fabric.Frame], dst []*fabric.Frame) int {
	p.polls.Add(1)
	n := ring.DequeueBatch(dst)
	if n == 0 && p.pollWire() > 0 {
		n = ring.DequeueBatch(dst)
	}
	if n > 0 {
		p.pollHits.Add(int64(n))
		p.batchPolls.Add(1)
	}
	return n
}

// pollWire is the progress path polling the network itself, as the paper's
// lc_progress does (Algorithm 3): one non-blocking burst read per receive
// shard, handled inline. Without it, delivery waits for a reader goroutine
// to wake, and while progress loops spin on runtime.Gosched the scheduler
// drains its run queue before it ever checks the netpoller, so readers wake
// only on their read-deadline tick (DESIGN.md §10). When every shard it
// polled was empty it also flushes delayed acks, so a one-way tail is acked
// within a poll rather than a tick. Returns the wire datagrams handled.
func (p *Provider) pollWire() int {
	n, polled := 0, false
	for _, s := range p.shards {
		h, ok := p.pollShard(s)
		n += h
		polled = polled || ok
	}
	if polled && n == 0 {
		p.flushAcks()
	}
	return n
}

// pollShard runs one non-blocking burst read on s and handles what arrived.
// It skips the shard (polled=false) when s has no vectored driver — the
// portable tier never receives inline — or another poller holds it.
func (p *Provider) pollShard(s *readerShard) (handled int, polled bool) {
	if s.poll == nil || s.bio.Load() == nil || !s.pollMu.TryLock() {
		return 0, false
	}
	defer s.pollMu.Unlock()
	rb := s.pollRx
	n, err := s.poll.pollBatch(rb.sizes, rb.cms)
	if err != nil {
		if err != errBatchUnsupported && !p.closed.Load() {
			p.sockErrors.Add(1)
		}
		return 0, true
	}
	if n > 1 {
		p.recvBatches.Add(1)
	}
	handled = p.handleBurst(s, rb, n)
	p.inlineRx.Add(int64(handled))
	return handled, true
}

// Pending returns a racy estimate of queued incoming frames, summed across
// every shard ring.
func (p *Provider) Pending() int {
	n := 0
	for _, r := range p.rs.Load().rings {
		n += r.Len()
	}
	return n
}

// ShardViews implements fabric.Sharder: it splits the delivery side into k
// rings selected by route.Frame and returns k Provider views, one per
// progress shard. View 0 keeps the original ring (frames delivered before
// the split surface there); the wire, the flows, and the reliability
// machinery stay rank-global. When route.Peer is set, each view's poll-path
// transmit flush only touches the flows its shard owns, so concurrent
// progress loops never contend on a flow lock; without it (tag sharding)
// every view flushes every flow — the flow locks keep that correct, and
// the housekeeping tick backstops latency either way.
func (p *Provider) ShardViews(k int, route fabric.ShardRoute) []fabric.Provider {
	if k < 1 {
		panic("netfabric: ShardViews needs k >= 1")
	}
	old := p.rs.Load()
	rings := make([]*concurrent.MPMC[*fabric.Frame], k)
	rings[0] = old.rings[0]
	for i := 1; i < k; i++ {
		rings[i] = concurrent.NewMPMC[*fabric.Frame](p.size * p.credits)
	}
	var route0 func(*fabric.Frame) int
	if k > 1 {
		route0 = route.Frame
	}
	p.rs.Store(&ringSet{rings: rings, route: route0})
	views := make([]fabric.Provider, k)
	for i := range views {
		v := &shardView{Provider: p, ring: rings[i], flows: p.flows}
		if route.Peer != nil && k > 1 {
			owned := make([]*flow, 0, (p.size+k-1)/k)
			for r, fl := range p.flows {
				if fl != nil && route.Peer(r) == i {
					owned = append(owned, fl)
				}
			}
			v.flows = owned
		}
		views[i] = v
	}
	return views
}

// shardView is one progress shard's window onto the provider: it polls only
// its own delivery ring, flushes only its own flows' pending transmits, and
// delegates everything else (sends, regions, stats, teardown) to the base
// provider. Its inline wire poll covers every receive shard — whatever it
// reads is routed to the owning view's ring — and the shards' poll locks
// keep concurrent views off each other's buffers.
type shardView struct {
	*Provider
	ring  *concurrent.MPMC[*fabric.Frame]
	flows []*flow // flows whose poll-path flush this shard owns
}

func (v *shardView) Poll() *fabric.Frame {
	v.flushFlows(v.flows)
	return v.pollRing(v.ring)
}

func (v *shardView) PollBatch(dst []*fabric.Frame) int {
	v.flushFlows(v.flows)
	return v.pollRingBatch(v.ring, dst)
}

func (v *shardView) Pending() int { return v.ring.Len() }

var _ fabric.Provider = (*shardView)(nil)

// reader drains one receive shard in vectored bursts and runs the
// reliability protocol on what arrives. It is the backstop behind the
// progress path's inline polls: it delivers while nobody polls, keeps the
// sockets drained through Close, and owns the timers — shard 0 (the primary
// socket), on its read-deadline tick, flushes pending transmits, retransmits
// timed-out packets, sends delayed acks and re-advertises credits. Extra
// shards only read; their deadline is just a liveness bound.
func (p *Provider) reader(s *readerShard) {
	defer p.wg.Done()
	rb := newRxBatch(p.readBufLen)
	if m := s.bio.Load(); m != nil {
		m.bindRead(rb.bufs)
	}
	housekeeper := s.idx == 0
	tick := p.tick
	if !housekeeper {
		tick = 50 * time.Millisecond
	}
	lastKeep := time.Now()
	for {
		s.conn.SetReadDeadline(time.Now().Add(tick))
		n, err := p.readShard(s, rb)
		if err != nil {
			// Timeouts are the housekeeping tick and must keep firing while
			// Close drains unacked packets (closed is already set then), so
			// only a non-timeout error on a closed provider ends the loop.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if housekeeper {
					p.housekeep()
					lastKeep = time.Now()
				}
				continue
			}
			if p.closed.Load() {
				return
			}
			// Transient socket error (e.g. ICMP bounce): keep serving, but
			// never spin on a persistently failing socket — and count it,
			// so a misbehaving wire is visible in NetStats instead of
			// silently eating reader throughput.
			p.sockErrors.Add(1)
			time.Sleep(100 * time.Microsecond)
			continue
		}
		p.handleBurst(s, rb, n)
		if housekeeper && time.Since(lastKeep) >= tick {
			p.housekeep()
			lastKeep = time.Now()
		}
	}
}

// handleBurst runs the reliability protocol on the first n datagrams of a
// burst read from shard s — by its reader goroutine or inline by a poller —
// re-splitting GRO super-datagrams, and returns the wire datagrams handled.
// It then rings the arrival doorbell. Acks ring it too: they open the
// window and return credit, which a consumer blocked on back-pressure (a
// fragment pump, a refused send) is waiting for.
func (p *Provider) handleBurst(s *readerShard, rb *rxBatch, n int) int {
	handled := 0
	for i := 0; i < n; i++ {
		b := rb.bufs[i][:rb.sizes[i]]
		cm := rb.cms[i]
		if cm.hasOvfl {
			p.noteOvfl(s, cm.ovfl)
		}
		if seg := cm.seg; seg > 0 && seg < len(b) {
			// A GRO super-datagram: consecutive wire datagrams of seg bytes
			// each (last possibly shorter), re-split here.
			p.groCoalesced.Add(1)
			for off := 0; off < len(b); off += seg {
				p.handleDatagram(b[off:min(off+seg, len(b))])
				handled++
			}
		} else {
			p.handleDatagram(b)
			handled++
		}
	}
	s.rx.Add(int64(handled))
	if handled > 0 {
		fabric.RingBell(p.bell)
	}
	return handled
}

// Arrivals implements fabric.Doorbell: it is rung after every handled
// burst of datagrams.
func (p *Provider) Arrivals() <-chan struct{} { return p.bell }

// Ring implements fabric.Doorbell.
func (p *Provider) Ring() { fabric.RingBell(p.bell) }

// readShard pulls a burst of datagrams off one shard socket (recvmmsg when
// available, one ReadFrom otherwise), honoring the read deadline either way.
// A kernel refusal downgrades only this shard — turning its GRO off first,
// since the portable read path cannot see the gso_size cmsg needed to
// re-split coalesced buffers. Clearing bio also retires the shard's inline
// poll driver.
func (p *Provider) readShard(s *readerShard, rb *rxBatch) (int, error) {
	if m := s.bio.Load(); m != nil {
		n, err := m.readBatch(rb.sizes, rb.cms)
		if err != errBatchUnsupported {
			if n > 1 {
				p.recvBatches.Add(1)
			}
			return n, err
		}
		disableGRO(s.conn)
		s.bio.Store(nil)
	}
	n, _, err := s.conn.ReadFrom(rb.bufs[0])
	if err != nil {
		return 0, err
	}
	rb.sizes[0] = n
	rb.cms[0] = rxCmsg{}
	return 1, nil
}

// noteOvfl folds one SO_RXQ_OVFL cumulative drop count into sockDrops. The
// kernel counter is per-socket and monotonic mod 2^32; the serial delta
// handles wrap, and rejects a stale count from the shard's other driver
// (reader and poller read the same socket concurrently).
func (p *Provider) noteOvfl(s *readerShard, cum uint32) {
	for {
		old := s.ovfl.Load()
		d := cum - old
		if int32(d) <= 0 {
			return
		}
		if s.ovfl.CompareAndSwap(old, cum) {
			p.sockDrops.Add(int64(d))
			return
		}
	}
}

func (p *Provider) handleDatagram(b []byte) {
	if len(b) < 4 {
		p.dropped.Add(1)
		return
	}
	// The decoders check the rest of the common header (magic, version,
	// flags), so a packet from another wire version is dropped below.
	switch b[2] {
	case pktData:
		d, ok := decodeData(b)
		if !ok || d.src < 0 || d.src >= p.size || d.src == p.rank ||
			int(d.msgLen) > p.eagerLimit {
			p.dropped.Add(1)
			return
		}
		fl := p.flows[d.src]
		// rmu serializes the flow's receive state (reassembly, reorder
		// buffer, piggyback dedup): the kernel pins a reuseport flow to one
		// shard, but a rebalance may hand it to another mid-stream.
		// Uncontended in steady state, so effectively free at shards=1.
		fl.rmu.Lock()
		// Piggybacked ack/credit for our reverse direction rides on every
		// data packet; skip the send-side lock when nothing changed.
		if d.hasAck && (d.pgAck != fl.lastPgAck || d.pgCredit != fl.lastPgCr) {
			fl.lastPgAck, fl.lastPgCr = d.pgAck, d.pgCredit
			p.onAck(fl, d.pgAck, d.pgCredit)
		}
		p.onData(fl, &d)
		fl.rmu.Unlock()
	case pktAck:
		src, cum, credit, ok := decodeAck(b)
		if !ok || src < 0 || src >= p.size || src == p.rank {
			p.dropped.Add(1)
			return
		}
		p.onAck(p.flows[src], cum, credit)
	default:
		p.dropped.Add(1)
	}
}

// onData runs the receive side of the sliding window: in-order packets are
// applied immediately (with any unblocked early arrivals), early packets
// are buffered, stale ones dropped. Every data arrival schedules an ack —
// piggybacked on reverse traffic when there is any, standalone immediately
// after ackEvery receives, or on the delayed-ack tick otherwise.
func (p *Provider) onData(fl *flow, d *dataPkt) {
	delta := d.seq - fl.recvNext.Load() // serial arithmetic: wrap-safe
	switch {
	case int32(delta) < 0: // stale duplicate: re-ack so the sender advances
		p.dropped.Add(1)
		p.markAckDue(fl)
		return
	case delta > 0: // early: buffer within the window
		if _, dup := fl.ooo[d.seq]; dup || delta > p.window {
			p.dropped.Add(1)
		} else {
			fl.ooo[d.seq] = d.clone()
		}
		p.markAckDue(fl)
		return
	}
	// recvNext advances before apply can put the message on the ring: a
	// consumer on another goroutine may dequeue, release and ack (or Close
	// and drain) at once, and that ack must already cover the packet.
	fl.recvNext.Add(1)
	p.apply(fl, d)
	applied := int32(1)
	for {
		next := fl.recvNext.Load()
		nd, ok := fl.ooo[next]
		if !ok {
			break
		}
		delete(fl.ooo, next)
		fl.recvNext.Add(1)
		p.apply(fl, nd)
		applied++
	}
	// One-way traffic cannot piggyback, so bound the sender's ack latency:
	// a standalone ack after every ackEvery packets, the delayed tick for
	// the tail. Flows with reverse data pending skip the standalone — the
	// next flush carries the ack for free.
	if n := fl.recvSinceAck.Add(applied); int(n) >= p.ackEvery && fl.pendTx.Load() == 0 {
		p.sendAckNow(fl, false)
	} else {
		p.markAckDue(fl)
	}
}

// apply reassembles one in-order fragment; a completed message becomes a
// pooled frame on the delivery ring. Ring capacity is guaranteed by the
// credit quota (delivered − consumed ≤ credits per flow).
func (p *Provider) apply(fl *flow, d *dataPkt) {
	if d.fragOff == 0 {
		fr := p.getFrame()
		fr.Kind = fabric.KindSend
		fr.Src = fl.peer
		fr.Header = d.header
		fr.Meta = d.meta
		if d.msgLen > 0 {
			fr.Data = fr.Buffer()[:d.msgLen]
		} else {
			fr.Data = nil
		}
		fl.asm = fr
		fl.asmLen = int(d.msgLen)
		fl.asmGot = 0
	}
	if fl.asm == nil {
		p.dropped.Add(1) // mid-message fragment with no head: protocol bug guard
		return
	}
	// decodeData only checked the packet against its *own* msgLen field; the
	// assembly buffer was sized by the head fragment's. A corrupted or
	// spoofed in-window datagram disagreeing with the head must be dropped,
	// not allowed to index past the buffer.
	if int(d.msgLen) != fl.asmLen || int(d.fragOff)+len(d.chunk) > len(fl.asm.Data) {
		p.dropped.Add(1)
		return
	}
	copy(fl.asm.Data[d.fragOff:], d.chunk)
	fl.asmGot += len(d.chunk)
	if fl.asmGot >= fl.asmLen {
		if !p.deliver(fl.asm) {
			panic("netfabric: delivery ring overflow (credit accounting bug)")
		}
		fl.asm = nil
		fl.delivered++
	}
}

// onAck runs the send side: retire acked packets in order from the ring
// head, slide the window, feed the RTT estimator (Karn's rule: only packets
// never retransmitted yield samples), and raise the credit limit
// (monotonic, so reordered acks are harmless).
func (p *Provider) onAck(fl *flow, cum uint32, credit uint64) {
	now := time.Now()
	fl.mu.Lock()
	// Unsigned delta rejects stale (cum behind base) and corrupt (beyond
	// what was actually sent) cumulative acks in one comparison. Pending
	// never-transmitted packets cannot have been acked.
	sent := uint32(fl.unacked.len() - fl.unsent)
	var retired uint32
	if delta := cum - fl.baseSeq; delta > 0 && delta <= sent {
		sample := time.Duration(-1)
		for i := uint32(0); i < delta; i++ {
			tx := fl.unacked.popFront()
			if tx.attempts == 0 {
				sample = now.Sub(tx.lastTx) // newest clean sample wins
			}
		}
		fl.baseSeq = cum
		retired = delta
		fl.ackStallWarned = false // the window moved: ack-stall episode over
		if sample >= 0 {
			fl.observeRTT(sample, p.minRTO, p.maxRTO)
		}
	}
	if credit > fl.creditLimit {
		fl.creditLimit = credit
		fl.creditStallSince = time.Time{} // peer granted credit: episode over
		fl.creditStallWarned = false
	}
	fl.mu.Unlock()
	if retired > 0 {
		p.tr.RecordArg(tracing.EvAckRx, fl.peer, tracing.ProtoNone, 0, retired, 0)
	}
}

// housekeep runs on the reader's tick (and between read bursts under load):
// flush pending transmits, retransmit timed-out packets (bounded burst,
// exponential backoff), release any reorder-held datagram, and send delayed
// acks. All-flow scans are skipped outright while the dirty counters say
// there is nothing to do.
func (p *Provider) housekeep() {
	p.flushPending()
	now := time.Now()
	budget := 64
	for _, fl := range p.flows {
		if budget == 0 {
			break
		}
		if fl == nil {
			continue
		}
		fl.mu.Lock()
		sent := fl.unacked.len() - fl.unsent
		burst := fl.scratch[:0]
		for i := 0; i < sent && budget > 0; i++ {
			tx := fl.unacked.at(i)
			// Seq order is transmission order for first sends, so the scan
			// stops at the first packet whose timer has not expired —
			// O(due packets), not O(window). A just-retransmitted head can
			// shadow a due successor for at most one backoff interval.
			if now.Sub(tx.lastTx) < fl.timeoutFor(tx, p.maxRTO) {
				break
			}
			if tx.attempts < 16 {
				tx.attempts++
			}
			tx.lastTx = now
			p.stampOutgoing(fl, tx.data)
			burst = append(burst, tx.data)
			p.retransmits.Add(1)
			p.tr.RecordArg(tracing.EvRetransmit, fl.peer, tracing.ProtoNone, len(tx.data), uint32(tx.attempts), 0)
			budget--
		}
		if len(burst) > 0 {
			p.xmitBatch(fl.peer, burst)
		}
		fl.scratch = burst[:0]

		// Stall detector. Ack stall: the oldest unacked packet has burned
		// stallRTOs retransmissions with no cumulative-ack movement (onAck
		// resets the latch when the window advances). Credit stall: sends
		// have sat at the credit wall past the timeout without the peer
		// raising its limit. Each warns once per episode. Suppressed once
		// Close begins: peers exit asynchronously, so the final ack of a
		// clean shutdown routinely goes unanswered — the drain-timeout dump
		// in Close covers the genuinely wedged case.
		closing := p.closed.Load()
		var ackStalled, creditStalled bool
		var attempts int
		if n := fl.unacked.len() - fl.unsent; n > 0 && !fl.ackStallWarned && !closing {
			if head := fl.unacked.at(0); head.attempts >= p.stallRTOs {
				fl.ackStallWarned = true
				ackStalled, attempts = true, head.attempts
			}
		}
		if !closing && !fl.creditStallWarned && !fl.creditStallSince.IsZero() &&
			fl.msgsSent >= fl.creditLimit && now.Sub(fl.creditStallSince) >= p.creditStallTO {
			fl.creditStallWarned = true
			creditStalled = true
		}
		fl.mu.Unlock()
		if ackStalled {
			p.warnStall(fl, stallAck, fmt.Sprintf("no ack progress after %d retransmits", attempts))
		}
		if creditStalled {
			p.warnStall(fl, stallCredit, fmt.Sprintf("zero send credit for %v", p.creditStallTO))
		}
	}
	// A reorder-held datagram must not outlive the hold window when traffic
	// goes quiet.
	if p.fault != nil {
		if held, dst := p.fault.take(); held != nil {
			p.xmitMu.Lock()
			p.writeWire([][]byte{held}, []int{dst})
			p.xmitMu.Unlock()
		}
	}
	p.flushAcks()
}

// sendAckNow emits one standalone ack/credit datagram for fl and clears its
// ack-due state. Safe from any goroutine (all inputs are atomics).
func (p *Provider) sendAckNow(fl *flow, delayed bool) {
	var buf [ackPktLen]byte
	n := encodeAck(buf[:], p.rank, fl.recvNext.Load(), fl.consumed.Load()+uint64(p.credits))
	fl.recvSinceAck.Store(0)
	if fl.ackDue.Swap(false) {
		p.ackDueFlows.Add(-1)
	}
	// Count before transmitting: once the ack is on the wire the peer may
	// retire its window, and whoever observes that must also see the count.
	p.acksSent.Add(1)
	if delayed {
		p.delayedAcks.Add(1)
	}
	p.tr.Record(tracing.EvAckTx, fl.peer, tracing.ProtoNone, 0, 0)
	p.xmitBatch(fl.peer, [][]byte{buf[:n]})
}

// Stall kinds carried in EvStallWarn's arg field.
const (
	stallAck    = 1 // no ack progress for StallRTOs retransmissions
	stallCredit = 2 // zero send credit beyond CreditStallTimeout
)

// warnStall emits one structured stall warning for fl: under tracing it
// records an EvStallWarn event and dumps the flight recorder so the events
// leading up to the stall are preserved, then bumps the stalls_total counter
// unconditionally — last, so whoever sees the count can read the dump.
func (p *Provider) warnStall(fl *flow, kind uint32, detail string) {
	p.tr.RecordArg(tracing.EvStallWarn, fl.peer, tracing.ProtoNone, 0, kind, 0)
	p.tr.DumpNow(fmt.Sprintf("rank %d stall: %s (peer %d)", p.rank, detail, fl.peer))
	p.stallWarns.Add(1)
}

// flushAcks sends one standalone ack/credit datagram to every peer still
// flagged ackDue — the delayed-ack path for one-way flows and pure credit
// refreshes. O(1) while no flow is dirty.
func (p *Provider) flushAcks() {
	if p.ackDueFlows.Load() == 0 {
		return
	}
	for _, fl := range p.flows {
		if fl == nil || !fl.ackDue.Load() {
			continue
		}
		p.sendAckNow(fl, true)
	}
}

// Stats returns a snapshot of the provider's counters in the fabric's
// schema, transport counters included.
func (p *Provider) Stats() fabric.Stats {
	var rtt time.Duration
	for _, fl := range p.flows {
		if fl == nil {
			continue
		}
		fl.mu.Lock()
		if fl.srtt > rtt {
			rtt = fl.srtt
		}
		fl.mu.Unlock()
	}
	return fabric.Stats{
		SendFrames:     p.sendFrames.Load(),
		SendBytes:      p.sendBytes.Load(),
		Polls:          p.polls.Load(),
		PollHits:       p.pollHits.Load(),
		SendRetries:    p.sendRetries.Load(),
		FramesRecycled: p.framesRecycled.Load(),
		BatchPolls:     p.batchPolls.Load(),
		Retransmits:    p.retransmits.Load(),
		PacketsDropped: p.dropped.Load(),
		AcksSent:       p.acksSent.Load(),
		CreditStalls:   p.creditStalls.Load(),
		SendBatches:    p.sendBatches.Load(),
		RecvBatches:    p.recvBatches.Load(),
		GSOSends:       p.gsoSends.Load(),
		GROCoalesced:   p.groCoalesced.Load(),
		SockDrops:      p.sockDrops.Load(),
		PiggybackAcks:  p.piggyAcks.Load(),
		DelayedAcks:    p.delayedAcks.Load(),
		SockErrors:     p.sockErrors.Load(),
		InlineRx:       p.inlineRx.Load(),
		RTTNanos:       rtt.Nanoseconds(),
	}
}
