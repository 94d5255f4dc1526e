// Package fabric simulates the cluster interconnect the paper's runtimes sit
// on: one NIC endpoint per host, a reliable network between them, bounded
// hardware receive resources, an eager send verb, an RDMA put verb into
// registered memory regions, and a poll verb that drains the receive ring.
//
// It is the substitution for the Omni-Path (psm2) and InfiniBand (ibverbs)
// adapters of Stampede2/Stampede1: see DESIGN.md §2. Both the MPI baseline
// (internal/mpi) and LCI (internal/core) drive exactly these verbs, so
// performance differences between the stacks come from their software paths,
// not from the fabric.
//
// Back-pressure is modelled the way the paper needs it to be: when a
// destination's receive ring is full, Send and Put fail with ErrResource.
// LCI surfaces that to its caller as a retriable failure; a naive MPI layer
// turns it into buffer exhaustion (see internal/mpi).
package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcigraph/internal/concurrent"
)

// ErrResource indicates the network could not accept the operation right now
// (destination ring full / injection limit). The operation had no effect and
// may be retried.
var ErrResource = errors.New("fabric: network resources exhausted (retry)")

// ErrBadRKey indicates an RDMA put referenced an unknown or out-of-bounds
// registered region.
var ErrBadRKey = errors.New("fabric: invalid rkey or out-of-bounds put")

// ErrNoRDMA indicates the fabric profile has no RDMA write capability
// (e.g. a sockets provider); upper layers must fall back to fragmented
// sends.
var ErrNoRDMA = errors.New("fabric: profile has no RDMA support")

// FrameKind discriminates what Poll returned.
type FrameKind uint8

const (
	// KindSend is an eager message frame carrying data.
	KindSend FrameKind = iota
	// KindPutDone is the completion notification of an RDMA put targeting
	// this endpoint's memory: the data is already in the registered region;
	// the frame carries only the immediate word.
	KindPutDone
)

// Frame is one unit of delivery from the network to an endpoint.
// Header and Meta are opaque 64-bit words for the upper layer (message type,
// tag, request ids...); the fabric never interprets them.
//
// Frames handed out by Poll/PollBatch are owned by the consumer until it
// calls Release, which returns the frame (and its pooled wire buffer) to the
// fabric free-list. Data aliases the pooled buffer, so it must not be read
// after Release.
type Frame struct {
	Kind   FrameKind
	Src    int
	Header uint64
	Meta   uint64
	Data   []byte // eager payload (KindSend); nil for KindPutDone

	buf     []byte       // pooled wire buffer backing Data (cap = EagerLimit)
	fab     *Fabric      // owning fabric; nil for hand-built frames
	rep     *Endpoint    // receiving endpoint (recycle attribution)
	recycle func(*Frame) // external-provider recycle hook (netfabric)
	inUse   atomic.Bool  // double-release guard
}

// Release returns a polled frame to its owner's free-list: the simulated
// fabric's pool, or — for frames minted by an external Provider — that
// provider's recycle hook. It is safe (and a no-op) on hand-built frames;
// releasing the same pooled frame twice panics. After Release the frame and
// its Data must not be touched.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if f.recycle != nil {
		if !f.inUse.CompareAndSwap(true, false) {
			panic("fabric: Frame released twice")
		}
		f.recycle(f)
		return
	}
	if f.fab == nil {
		return
	}
	if !f.inUse.CompareAndSwap(true, false) {
		panic("fabric: Frame released twice")
	}
	if f.rep != nil {
		f.rep.framesRecycled.Add(1)
		f.rep = nil
	}
	f.fab.putFrame(f)
}

// NewProviderFrame mints a frame owned by an external Provider. buf is the
// provider's reusable wire buffer (Data may alias it; retrieve it with
// Buffer); recycle is invoked by Release, after the double-release guard,
// instead of the simulator free-list. The frame starts idle — the provider
// must call Acquire before every delivery.
func NewProviderFrame(buf []byte, recycle func(*Frame)) *Frame {
	return &Frame{buf: buf, recycle: recycle}
}

// Buffer returns the frame's attached wire buffer (nil for frames without
// one). Providers slice Data out of it during reassembly.
func (f *Frame) Buffer() []byte { return f.buf }

// Acquire marks a provider frame as handed out to a consumer, arming the
// double-release guard. Acquiring a frame already in flight panics.
func (f *Frame) Acquire() {
	if !f.inUse.CompareAndSwap(false, true) {
		panic("fabric: provider frame acquired while in use")
	}
}

// Profile describes a NIC / interconnect model. The per-operation overheads
// are charged as busy-wait time on the calling thread, modelling the
// injection and delivery costs of a real adapter; they are deliberately small
// relative to the software-stack costs under study.
type Profile struct {
	Name       string
	RingDepth  int           // per-endpoint receive ring depth (HW resource)
	EagerLimit int           // maximum bytes carried by a single Send frame
	SendCost   time.Duration // per-Send injection overhead
	PutCost    time.Duration // per-Put injection overhead
	ByteCost   time.Duration // additional cost per 1KiB transferred
	MaxRegions int           // registered-region table size
	// DisableRDMA models transports without remote-write capability (the
	// libfabric sockets provider class): Put fails with ErrNoRDMA and the
	// communication runtimes fall back to fragmented eager sends.
	DisableRDMA bool
	// Jitter, when positive, adds a pseudo-random extra delay of up to
	// this duration to a fraction of operations — failure/variance
	// injection for robustness tests (congested or noisy networks).
	Jitter time.Duration
}

// OmniPath models the Stampede2 Intel Omni-Path fabric (psm2): deep rings,
// low per-message overhead (Table III row 1).
func OmniPath() Profile {
	return Profile{
		Name:       "omnipath",
		RingDepth:  1024,
		EagerLimit: 8 << 10,
		SendCost:   200 * time.Nanosecond,
		PutCost:    300 * time.Nanosecond,
		// The per-byte cost is scaled to the simulator's (goroutine-
		// scheduling) hop latency, not to real wall-clock bandwidth, so
		// that large transfers are bandwidth-dominated just as on the real
		// NIC; see DESIGN.md §2.
		ByteCost:   1200 * time.Nanosecond,
		MaxRegions: 4096,
	}
}

// InfiniBand models the Stampede1 Mellanox FDR InfiniBand fabric (ibverbs,
// RC): shallower rings, slightly higher per-message cost, lower bandwidth
// (Table III row 2).
func InfiniBand() Profile {
	return Profile{
		Name:       "infiniband",
		RingDepth:  512,
		EagerLimit: 4 << 10,
		SendCost:   350 * time.Nanosecond,
		PutCost:    450 * time.Nanosecond,
		ByteCost:   2100 * time.Nanosecond, // ~0.57× the Omni-Path rate
		MaxRegions: 4096,
	}
}

// Sockets models a commodity transport with no RDMA (the libfabric sockets
// provider / TCP class): the portability target of §VI — LCI "requires
// only a few primitive network operations", so it must run here too.
func Sockets() Profile {
	return Profile{
		Name:        "sockets",
		RingDepth:   256,
		EagerLimit:  4 << 10,
		SendCost:    900 * time.Nanosecond,
		PutCost:     0,
		ByteCost:    3500 * time.Nanosecond,
		MaxRegions:  128,
		DisableRDMA: true,
	}
}

// ProfileByName returns the named NIC profile: omnipath, infiniband or
// sockets.
func ProfileByName(name string) (Profile, error) {
	for _, p := range []Profile{OmniPath(), InfiniBand(), Sockets()} {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("unknown NIC profile %q (want omnipath, infiniband or sockets)", name)
}

// TestProfile is a fast zero-overhead profile for unit tests.
func TestProfile() Profile {
	return Profile{
		Name:       "test",
		RingDepth:  64,
		EagerLimit: 1 << 10,
		MaxRegions: 128,
	}
}

// Stats are per-endpoint operation counters.
type Stats struct {
	SendFrames     int64
	SendBytes      int64
	Puts           int64
	PutBytes       int64
	Polls          int64
	PollHits       int64
	SendRetries    int64 // ErrResource returns from Send
	PutRetries     int64 // ErrResource returns from Put
	FramesRecycled int64 // frames returned to the pool after delivery here
	BatchPolls     int64 // PollBatch calls that drained at least one frame

	// Real-transport counters, filled by providers with an actual wire
	// (internal/netfabric); always zero on the simulated fabric, whose
	// network is lossless and flow-controlled by the receive ring alone.
	Retransmits    int64 // data packets resent after an ack timeout
	PacketsDropped int64 // datagrams dropped: injected faults + stale/duplicate arrivals
	AcksSent       int64 // standalone ack/credit datagrams sent
	CreditStalls   int64 // sends refused because the peer advertised no credit
	SendBatches    int64 // vectored sendmmsg bursts carrying >1 datagram
	RecvBatches    int64 // vectored recvmmsg bursts carrying >1 datagram
	GSOSends       int64 // multi-segment UDP_SEGMENT trains handed to the kernel
	GROCoalesced   int64 // coalesced super-datagrams received and re-split
	SockDrops      int64 // kernel receive-queue drops reported via SO_RXQ_OVFL
	PiggybackAcks  int64 // acks carried for free on outgoing DATA packets
	DelayedAcks    int64 // standalone acks deferred past their data (quiet-wire poll or delayed-ack tick)
	SockErrors     int64 // transient socket errors absorbed by the receive path
	InlineRx       int64 // wire datagrams received and handled by progress polls, not reader goroutines
	RTTNanos       int64 // worst smoothed RTT estimate across peer flows
}

// Fabric is an in-process interconnect between n endpoints.
type Fabric struct {
	prof Profile
	eps  []*Endpoint

	// frames is the shared free-list of delivery frames with pooled wire
	// buffers. It is a cache, not an accounting structure: a miss allocates
	// a fresh frame, and a frame dropped on the floor (never Released) is
	// simply collected by the GC.
	frames      *concurrent.MPMC[*Frame]
	outstanding atomic.Int64 // pooled frames handed out and not yet released
}

// New creates a fabric with n endpoints using profile prof.
func New(n int, prof Profile) *Fabric {
	if prof.RingDepth <= 0 {
		prof.RingDepth = 64
	}
	if prof.EagerLimit <= 0 {
		prof.EagerLimit = 1 << 10
	}
	if prof.MaxRegions <= 0 {
		prof.MaxRegions = 128
	}
	f := &Fabric{prof: prof, eps: make([]*Endpoint, n)}
	f.frames = concurrent.NewMPMC[*Frame](max(prof.RingDepth*n, 64))
	for i := range f.eps {
		e := &Endpoint{fab: f, rank: i, bell: make(chan struct{}, 1)}
		e.rs.Store(&ringSet{
			rings: []*concurrent.MPMC[*Frame]{concurrent.NewMPMC[*Frame](prof.RingDepth)},
			bells: []chan struct{}{e.bell},
		})
		f.eps[i] = e
	}
	return f
}

// getFrame takes a frame from the free-list, allocating on a miss. The
// returned frame's buf has capacity ≥ EagerLimit.
func (f *Fabric) getFrame() *Frame {
	fr, ok := f.frames.Dequeue()
	if !ok {
		fr = &Frame{fab: f, buf: make([]byte, f.prof.EagerLimit)}
	}
	if !fr.inUse.CompareAndSwap(false, true) {
		panic("fabric: pooled frame handed out while in use")
	}
	f.outstanding.Add(1)
	return fr
}

// putFrame returns a frame to the free-list (dropping it if the list is
// full — the GC reclaims it, keeping the pool a pure cache).
func (f *Fabric) putFrame(fr *Frame) {
	f.outstanding.Add(-1)
	fr.Data = nil
	fr.Header = 0
	fr.Meta = 0
	f.frames.Enqueue(fr)
}

// FramesOutstanding returns the number of pooled frames currently held by
// consumers (handed out by Send/Put and not yet Released). Conservation
// tests assert this returns to zero after a drain.
func (f *Fabric) FramesOutstanding() int64 { return f.outstanding.Load() }

// Size returns the number of endpoints.
func (f *Fabric) Size() int { return len(f.eps) }

// Profile returns the fabric's NIC profile.
func (f *Fabric) Profile() Profile { return f.prof }

// Endpoint returns the endpoint for host rank.
func (f *Fabric) Endpoint(rank int) *Endpoint { return f.eps[rank] }

// region is a registered memory window on an endpoint.
type region struct {
	buf   []byte
	valid bool
}

// ringSet is an endpoint's receive side: one ring per progress shard, each
// with its own doorbell, plus the route that picks the ring for an arriving
// frame. It is immutable — ShardViews installs a new set with a single
// atomic pointer swap, so delivery never observes a half-built slice.
// Before sharding (and always at K=1) there is exactly one ring and no
// route.
type ringSet struct {
	rings []*concurrent.MPMC[*Frame]
	bells []chan struct{}  // bells[i] is rung on every delivery to rings[i]
	route func(*Frame) int // nil: everything lands on rings[0]
}

// pick returns the index of the ring an arriving frame belongs on, clamping
// a bad route result to shard 0 rather than dropping traffic.
func (rs *ringSet) pick(f *Frame) int {
	if rs.route == nil || len(rs.rings) == 1 {
		return 0
	}
	i := rs.route(f)
	if i < 0 || i >= len(rs.rings) {
		i = 0
	}
	return i
}

// Endpoint is one host's NIC. Send and Put may be called from any goroutine
// of the owning host; Poll is normally called by a single progress thread
// per shard view (it is nevertheless thread-safe).
type Endpoint struct {
	fab  *Fabric
	rank int
	rs   atomic.Pointer[ringSet]
	bell chan struct{} // Doorbell: rung on every delivery to ring 0

	mu      sync.Mutex
	regions []region
	free    []uint32

	sendFrames     atomic.Int64
	sendBytes      atomic.Int64
	puts           atomic.Int64
	putBytes       atomic.Int64
	polls          atomic.Int64
	pollHits       atomic.Int64
	sendRetries    atomic.Int64
	putRetries     atomic.Int64
	framesRecycled atomic.Int64
	batchPolls     atomic.Int64
	jitterSeq      atomic.Uint64
}

// Rank returns the endpoint's host rank.
func (e *Endpoint) Rank() int { return e.rank }

// EagerLimit returns the maximum payload of a single Send.
func (e *Endpoint) EagerLimit() int { return e.fab.prof.EagerLimit }

// Size returns the number of hosts on the fabric.
func (e *Endpoint) Size() int { return e.fab.Size() }

// Fabric returns the fabric this endpoint belongs to.
func (e *Endpoint) Fabric() *Fabric { return e.fab }

// HasRDMA reports whether the fabric supports Put.
func (e *Endpoint) HasRDMA() bool { return !e.fab.prof.DisableRDMA }

// chargeSleepMin is the threshold above which charge sleeps instead of
// spinning: modelled costs of tens of microseconds and up would otherwise
// burn whole cores (and wall-clock minutes of test time on small machines).
const chargeSleepMin = 50 * time.Microsecond

// charge waits for the modelled cost of an operation moving n bytes, plus
// injected jitter when the profile asks for it. Short costs busy-wait (the
// charge is a CPU cost model); long ones sleep most of the duration and
// spin only the remainder so the wall-clock charge stays accurate without
// monopolising a core.
func (e *Endpoint) charge(base time.Duration, n int) {
	d := base + e.fab.prof.ByteCost*time.Duration(n)/1024
	if j := e.fab.prof.Jitter; j > 0 {
		// Cheap xorshift on a per-endpoint counter: ~1 in 8 operations is
		// delayed by up to j.
		x := uint64(e.jitterSeq.Add(0x9e3779b97f4a7c15))
		x ^= x >> 33
		if x&7 == 0 {
			d += time.Duration(x % uint64(j))
		}
	}
	if d <= 0 {
		return
	}
	start := time.Now()
	if d >= chargeSleepMin {
		// Sleep slightly short of the target; the spin below absorbs timer
		// overshoot either way (the charge is a minimum, not an exact).
		time.Sleep(d - chargeSleepMin/2)
	}
	for time.Since(start) < d {
	}
}

// Send injects an eager message to dst. The payload is copied onto the wire;
// the caller's buffer is reusable as soon as Send returns. Send fails with
// ErrResource when dst's receive ring is full — the caller must retry (or,
// in the naive MPI model, die).
func (e *Endpoint) Send(dst int, header, meta uint64, data []byte) error {
	if len(data) > e.fab.prof.EagerLimit {
		return fmt.Errorf("fabric: send of %d bytes exceeds eager limit %d", len(data), e.fab.prof.EagerLimit)
	}
	if dst < 0 || dst >= len(e.fab.eps) {
		return fmt.Errorf("fabric: bad destination rank %d", dst)
	}
	f := e.fab.getFrame()
	f.Kind = KindSend
	f.Src = e.rank
	f.Header = header
	f.Meta = meta
	if len(data) > 0 {
		f.Data = f.buf[:len(data)]
		copy(f.Data, data)
	} else {
		f.Data = nil
	}
	target := e.fab.eps[dst]
	f.rep = target
	e.charge(e.fab.prof.SendCost, len(data))
	if !target.deliver(f) {
		// Undelivered: return the frame to the pool without counting it as
		// a consumer recycle.
		f.rep = nil
		f.inUse.Store(false)
		f.fab.putFrame(f)
		e.sendRetries.Add(1)
		return ErrResource
	}
	e.sendFrames.Add(1)
	e.sendBytes.Add(int64(len(data)))
	return nil
}

// RegisterRegion registers buf for remote Put access and returns its rkey.
// The region remains valid until DeregisterRegion.
func (e *Endpoint) RegisterRegion(buf []byte) (uint32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		k := e.free[n-1]
		e.free = e.free[:n-1]
		e.regions[k] = region{buf: buf, valid: true}
		return k, nil
	}
	if len(e.regions) >= e.fab.prof.MaxRegions {
		return 0, errors.New("fabric: region table full")
	}
	e.regions = append(e.regions, region{buf: buf, valid: true})
	return uint32(len(e.regions) - 1), nil
}

// DeregisterRegion releases an rkey.
func (e *Endpoint) DeregisterRegion(rkey uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(rkey) < len(e.regions) && e.regions[rkey].valid {
		e.regions[rkey] = region{}
		e.free = append(e.free, rkey)
	}
}

// lookupRegion returns the target slice for a put.
func (e *Endpoint) lookupRegion(rkey uint32, offset, n int) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if int(rkey) >= len(e.regions) || !e.regions[rkey].valid {
		return nil, ErrBadRKey
	}
	buf := e.regions[rkey].buf
	if offset < 0 || offset+n > len(buf) {
		return nil, ErrBadRKey
	}
	return buf[offset : offset+n], nil
}

// Put performs an RDMA write of data into dst's registered region rkey at
// offset, then delivers a KindPutDone frame carrying imm to dst. Like Send
// it fails with ErrResource when dst's ring cannot take the completion (the
// data is NOT written in that case, so retry is safe).
func (e *Endpoint) Put(dst int, rkey uint32, offset int, data []byte, imm uint64) error {
	if e.fab.prof.DisableRDMA {
		return ErrNoRDMA
	}
	if dst < 0 || dst >= len(e.fab.eps) {
		return fmt.Errorf("fabric: bad destination rank %d", dst)
	}
	target := e.fab.eps[dst]
	dstBuf, err := target.lookupRegion(rkey, offset, len(data))
	if err != nil {
		return err
	}
	// Reserve the completion slot first so a full ring never leaves a
	// half-visible write.
	f := e.fab.getFrame()
	f.Kind = KindPutDone
	f.Src = e.rank
	f.Header = imm
	f.Meta = uint64(rkey)
	f.Data = nil
	f.rep = target
	e.charge(e.fab.prof.PutCost, len(data))
	copy(dstBuf, data)
	if !target.deliver(f) {
		// Roll-back is impossible for real RDMA; but since the receiver only
		// reads the region after seeing the completion, re-copying on retry
		// is harmless. Report retriable failure.
		f.rep = nil
		f.inUse.Store(false)
		f.fab.putFrame(f)
		e.putRetries.Add(1)
		return ErrResource
	}
	e.puts.Add(1)
	e.putBytes.Add(int64(len(data)))
	return nil
}

// deliver routes an arriving frame onto the receive ring of the shard that
// owns it and rings that shard's doorbell. False means the ring was full
// (back-pressure: the caller rolls the frame back and reports ErrResource).
func (e *Endpoint) deliver(f *Frame) bool {
	rs := e.rs.Load()
	i := rs.pick(f)
	if !rs.rings[i].Enqueue(f) {
		return false
	}
	RingBell(rs.bells[i])
	return true
}

// Arrivals implements Doorbell: it is rung after every frame delivered to
// ring 0, which is every frame until ShardViews splits the endpoint. A ring
// into a full slot is one load, so senders pay next to nothing while nobody
// waits.
func (e *Endpoint) Arrivals() <-chan struct{} { return e.bell }

// Ring implements Doorbell.
func (e *Endpoint) Ring() { RingBell(e.bell) }

// DoorbellCoversIdle implements Parker: the ring is the endpoint's whole
// receive side and every delivery rings, so a pass that polls nothing has
// nothing to do until the bell rings.
func (e *Endpoint) DoorbellCoversIdle() {}

// Poll removes and returns one incoming frame, or nil if none is pending.
// The caller owns the frame until it calls Release. On a sharded endpoint
// the base Poll drains shard 0's ring; the other shards poll their views.
func (e *Endpoint) Poll() *Frame {
	e.polls.Add(1)
	f, ok := e.rs.Load().rings[0].Dequeue()
	if !ok {
		return nil
	}
	e.pollHits.Add(1)
	return f
}

// PollBatch drains up to len(dst) incoming frames in one ring pass (a single
// atomic reservation on the receive ring) and returns the number stored.
// The caller owns every returned frame until it calls Release.
func (e *Endpoint) PollBatch(dst []*Frame) int {
	e.polls.Add(1)
	n := e.rs.Load().rings[0].DequeueBatch(dst)
	if n > 0 {
		e.pollHits.Add(int64(n))
		e.batchPolls.Add(1)
	}
	return n
}

// Pending returns a racy estimate of queued incoming frames, summed across
// every shard ring.
func (e *Endpoint) Pending() int {
	n := 0
	for _, r := range e.rs.Load().rings {
		n += r.Len()
	}
	return n
}

// ShardViews implements Sharder: it splits the endpoint's receive side into
// k rings selected by route.Frame and returns k Provider views, one per
// progress shard. View 0 keeps the original ring, so frames delivered
// before the split surface there. Send/Put, the region table, and the stat
// counters stay rank-global — any view may send on behalf of its shard.
func (e *Endpoint) ShardViews(k int, route ShardRoute) []Provider {
	if k < 1 {
		panic("fabric: ShardViews needs k >= 1")
	}
	old := e.rs.Load()
	rings := make([]*concurrent.MPMC[*Frame], k)
	bells := make([]chan struct{}, k)
	rings[0], bells[0] = old.rings[0], old.bells[0]
	for i := 1; i < k; i++ {
		rings[i] = concurrent.NewMPMC[*Frame](e.fab.prof.RingDepth)
		bells[i] = make(chan struct{}, 1)
	}
	var route0 func(*Frame) int
	if k > 1 {
		route0 = route.Frame
	}
	e.rs.Store(&ringSet{rings: rings, bells: bells, route: route0})
	views := make([]Provider, k)
	for i := range views {
		views[i] = &shardView{Endpoint: e, ring: rings[i], bell: bells[i]}
	}
	return views
}

// shardView is one progress shard's window onto a sharded endpoint: it
// polls only its own ring, has its own doorbell, rung on every delivery to
// that ring, and delegates everything else to the base endpoint.
type shardView struct {
	*Endpoint
	ring *concurrent.MPMC[*Frame]
	bell chan struct{}
}

// Arrivals implements Doorbell for the shard's own ring.
func (v *shardView) Arrivals() <-chan struct{} { return v.bell }

// Ring implements Doorbell.
func (v *shardView) Ring() { RingBell(v.bell) }

func (v *shardView) Poll() *Frame {
	v.polls.Add(1)
	f, ok := v.ring.Dequeue()
	if !ok {
		return nil
	}
	v.pollHits.Add(1)
	return f
}

func (v *shardView) PollBatch(dst []*Frame) int {
	v.polls.Add(1)
	n := v.ring.DequeueBatch(dst)
	if n > 0 {
		v.pollHits.Add(int64(n))
		v.batchPolls.Add(1)
	}
	return n
}

func (v *shardView) Pending() int { return v.ring.Len() }

var _ Provider = (*shardView)(nil)
var _ Sharder = (*Endpoint)(nil)
var _ Parker = (*Endpoint)(nil)
var _ Parker = (*shardView)(nil)

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		SendFrames:     e.sendFrames.Load(),
		SendBytes:      e.sendBytes.Load(),
		Puts:           e.puts.Load(),
		PutBytes:       e.putBytes.Load(),
		Polls:          e.polls.Load(),
		PollHits:       e.pollHits.Load(),
		SendRetries:    e.sendRetries.Load(),
		PutRetries:     e.putRetries.Load(),
		FramesRecycled: e.framesRecycled.Load(),
		BatchPolls:     e.batchPolls.Load(),
	}
}
