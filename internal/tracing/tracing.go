// Package tracing is the runtime's message-lifecycle tracer: a lock-free,
// per-goroutine-sharded ring buffer of typed events cheap enough to leave on
// (~tens of ns per event, fixed memory, overwrite-oldest), distinct from the
// per-round aggregate tracing in internal/trace.
//
// Each event carries the local rank, the peer rank, the wire protocol, a
// size, and a per-message id threaded through core.Request and the packet
// header (DESIGN.md §12), so the send-side and receive-side halves of one
// message correlate across ranks. Consumers are the flight recorder
// (flight.go), which dumps the last N events on SIGQUIT / close errors /
// stall detection, and the Chrome trace-event exporter (chrome.go), which
// renders per-rank timelines with cross-rank flow arrows.
//
// Hot-path cost model:
//
//   - Record is one time.Now(), one atomic fetch-add to claim a slot, and
//     four atomic word stores. Slots are claimed per goroutine-stack shard
//     (the telemetry shardIdx trick), so concurrent writers rarely contend.
//   - Slot words are atomics so a live dump (flight recorder, /debug/trace)
//     never races the writers; a dump concurrent with a wrapping writer can
//     observe one event torn across its words, which the consumers tolerate
//     (an implausible type or timestamp at worst — dumps of quiescent rings
//     are exact).
//   - A nil *Tracer no-ops every method, mirroring the disabled-telemetry
//     dark path: instrumentation sites pay one predictable branch when
//     tracing is off (the same ~3% budget as telemetry, unverified until it
//     is re-measured with perfbench pairs).
package tracing

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// EventType identifies one lifecycle stage of a message (or a runtime state
// transition). The zero value is reserved as "empty slot".
type EventType uint8

const (
	evInvalid EventType = iota

	// Queue-pair API surface (core endpoint).
	EvSendEnq // application enqueued a send; arg: 0=eager 1=rendezvous
	EvRecvDeq // application dequeued a completed receive

	// Eager protocol.
	EvEagerTx // eager packet handed to the fabric

	// Rendezvous protocol (RTS/RTR/RDMA-put or FRG fallback).
	EvRTSTx    // sender issued ready-to-send
	EvRTRTx    // receiver answered ready-to-receive
	EvRTRRx    // sender saw the RTR
	EvPutTx    // sender issued the RDMA put
	EvFrgStart // sender began FRG fragment streaming (no-RDMA fallback)
	EvFrgRx    // receiver absorbed a fragment; arg = offset

	// Completion.
	EvComplete // request's completion flag set; arg: 1=send 2=recv

	// Back-pressure and reliability.
	EvRetry       // ErrResource retry (outbox park or layer spin); arg = spins
	EvCreditStall // netfabric send refused: peer advertises zero credits
	EvRetransmit  // netfabric retransmitted a data packet; arg = seq
	EvAckTx       // netfabric sent a standalone ack
	EvAckRx       // netfabric ack advanced the send window; arg = retired pkts
	EvStallWarn   // stall detector fired; arg: 1=no ack progress 2=credit starvation

	// Progress-server state transitions (recorded on edges, not per poll).
	EvProgressBusy // progress loop found work after an idle streak; arg = idle polls
	EvProgressIdle // progress loop went idle after a busy streak

	// Comm-layer surface (above core).
	EvLayerSend // comm layer accepted an application message
	EvLayerRecv // comm layer delivered an application message

	// Graph-query serving lifecycle (internal/serve). The msgid of these
	// events is the query id — rank<<24|seq, the same encoding as wire
	// message ids — so one query's stages line up as a flow in the merged
	// timeline, next to the transport messages it generated.
	EvQueryRecv    // frontend admitted a client query; arg = op
	EvQueryScatter // coordinator scattered a sub-query batch; arg = round
	EvQueryGather  // coordinator absorbed a sub-query reply
	EvQueryServe   // owning rank served an adjacency sub-query
	EvQueryDone    // query completed; arg: 1=ok 2=shed 3=error

	numEventTypes
)

var eventNames = [numEventTypes]string{
	evInvalid:      "invalid",
	EvSendEnq:      "send-enq",
	EvRecvDeq:      "recv-deq",
	EvEagerTx:      "eager-tx",
	EvRTSTx:        "rts-tx",
	EvRTRTx:        "rtr-tx",
	EvRTRRx:        "rtr-rx",
	EvPutTx:        "put-tx",
	EvFrgStart:     "frg-start",
	EvFrgRx:        "frg-rx",
	EvComplete:     "complete",
	EvRetry:        "retry",
	EvCreditStall:  "credit-stall",
	EvRetransmit:   "retransmit",
	EvAckTx:        "ack-tx",
	EvAckRx:        "ack-rx",
	EvStallWarn:    "stall-warn",
	EvProgressBusy: "progress-busy",
	EvProgressIdle: "progress-idle",
	EvLayerSend:    "layer-send",
	EvLayerRecv:    "layer-recv",
	EvQueryRecv:    "query-recv",
	EvQueryScatter: "query-scatter",
	EvQueryGather:  "query-gather",
	EvQueryServe:   "query-serve",
	EvQueryDone:    "query-done",
}

func (t EventType) String() string {
	if t < numEventTypes {
		return eventNames[t]
	}
	return "unknown"
}

// Proto values carried by events, mirroring the core packet types (0 means
// "not protocol-specific").
const (
	ProtoNone uint8 = 0
	ProtoEGR  uint8 = 1
	ProtoRTS  uint8 = 2
	ProtoRTR  uint8 = 3
	ProtoFRG  uint8 = 4
)

func protoName(p uint8) string {
	switch p {
	case ProtoEGR:
		return "egr"
	case ProtoRTS:
		return "rts"
	case ProtoRTR:
		return "rtr"
	case ProtoFRG:
		return "frg"
	}
	return "-"
}

// Message-id encoding (DESIGN.md §12): the wire carries the low 24 bits of
// the id in the packet header's reserved bits; the global id prepends the
// sending rank, so ids are unique across ranks and the receive side can
// reconstruct the global id from (src rank, 24-bit wire id).
const (
	// MsgIDBits is the width of the per-rank sequence carried on the wire.
	MsgIDBits = 24
	// MsgIDMask masks the wire-visible sequence.
	MsgIDMask = 1<<MsgIDBits - 1
)

// MsgID builds a globally unique message id from the sender's rank and its
// 24-bit wire sequence (which wraps; 16M in-flight traced messages per rank
// before aliasing, far beyond any ring's memory).
func MsgID(rank int, seq uint32) uint64 {
	return uint64(rank)<<MsgIDBits | uint64(seq&MsgIDMask)
}

// MsgIDRank extracts the sending rank from a global message id.
func MsgIDRank(id uint64) int { return int(id >> MsgIDBits) }

// Event is one decoded ring entry.
type Event struct {
	TS    int64 // wall-clock, ns since the Unix epoch
	Type  EventType
	Proto uint8
	Peer  int32 // peer rank; -1 when not peer-specific
	Size  uint32
	Arg   uint32 // event-specific (see the EventType comments)
	MsgID uint64 // 0 when the event is not tied to one message
}

// numShards matches telemetry's shard count; see shardIdx.
const numShards = 16

// shardIdx picks a shard from the caller's stack address (the telemetry
// trick): distinct goroutines claim slots from distinct rings without
// thread-local state, and one goroutine stays cache-hot on its ring.
func shardIdx() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>10) & (numShards - 1)
}

// slot is one ring entry, packed into four atomic words so concurrent dumps
// are race-free:
//
//	w0  timestamp (UnixNano; 0 = empty slot)
//	w1  type<<56 | proto<<48 | uint32(peer)
//	w2  size<<32 | arg
//	w3  message id
type slot struct {
	w [4]atomic.Uint64
}

type ringShard struct {
	pos   atomic.Uint64 // next slot to claim; monotonically increasing
	_     [56]byte      // keep writer cursors off each other's cache line
	slots []slot
}

// Tracer is a per-rank event ring. A nil Tracer is the dark path: every
// method no-ops.
type Tracer struct {
	rank   int
	mask   uint64
	shards [numShards]ringShard

	dumpMu    sync.Mutex
	dumpW     atomic.Pointer[dumpSink]
	dumpExtra atomic.Pointer[dumpExtraFn]
	lastDump  atomic.Int64 // UnixNano of the last rate-limited DumpNow
}

// DefaultShardCap is the default per-shard ring capacity in events. 16
// shards x 4096 slots x 32 B is 2 MiB per rank — fixed, allocated once.
const DefaultShardCap = 4096

// New returns a tracer for rank with the given per-shard capacity (rounded
// up to a power of two; <=0 selects DefaultShardCap).
func New(rank, perShardCap int) *Tracer {
	if perShardCap <= 0 {
		perShardCap = DefaultShardCap
	}
	capPow := 1
	for capPow < perShardCap {
		capPow <<= 1
	}
	t := &Tracer{rank: rank, mask: uint64(capPow - 1)}
	for i := range t.shards {
		t.shards[i].slots = make([]slot, capPow)
	}
	return t
}

// Rank returns the tracer's rank (0 for nil).
func (t *Tracer) Rank() int {
	if t == nil {
		return 0
	}
	return t.rank
}

// Enabled reports whether events are recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Record appends one event. peer is the remote rank (-1 if none), proto the
// wire protocol (Proto*), size the payload size in bytes, msgid the global
// message id (0 if none). Overwrites the oldest event when the shard ring is
// full. Safe from any goroutine.
func (t *Tracer) Record(ev EventType, peer int, proto uint8, size int, msgid uint64) {
	t.record(ev, peer, proto, size, 0, msgid)
}

// RecordArg is Record with an event-specific argument (retry spin counts,
// fragment offsets, retransmit seqs — see the EventType comments).
func (t *Tracer) RecordArg(ev EventType, peer int, proto uint8, size int, arg uint32, msgid uint64) {
	t.record(ev, peer, proto, size, arg, msgid)
}

func (t *Tracer) record(ev EventType, peer int, proto uint8, size int, arg uint32, msgid uint64) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	sh := &t.shards[shardIdx()]
	s := &sh.slots[(sh.pos.Add(1)-1)&t.mask]
	s.w[0].Store(uint64(now))
	s.w[1].Store(uint64(ev)<<56 | uint64(proto)<<48 | uint64(uint32(peer)))
	s.w[2].Store(uint64(uint32(size))<<32 | uint64(arg))
	s.w[3].Store(msgid)
}

// Events snapshots the ring: every recorded event across all shards, oldest
// first (sorted by timestamp). Exact when writers are quiescent; during live
// recording a concurrently overwritten slot may decode to a torn event.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		for j := range sh.slots {
			s := &sh.slots[j]
			w0 := s.w[0].Load()
			if w0 == 0 {
				continue
			}
			w1, w2, w3 := s.w[1].Load(), s.w[2].Load(), s.w[3].Load()
			ev := EventType(w1 >> 56)
			if ev == evInvalid || ev >= numEventTypes {
				continue // torn slot mid-write
			}
			out = append(out, Event{
				TS:    int64(w0),
				Type:  ev,
				Proto: uint8(w1 >> 48),
				Peer:  int32(uint32(w1)),
				Size:  uint32(w2 >> 32),
				Arg:   uint32(w2),
				MsgID: w3,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Len returns the number of recorded (non-empty) slots, bounded by capacity.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		pos := sh.pos.Load()
		if pos > uint64(len(sh.slots)) {
			pos = uint64(len(sh.slots))
		}
		n += int(pos)
	}
	return n
}
