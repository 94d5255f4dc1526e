package netfabric

import (
	"sync"
	"sync/atomic"
	"time"

	"lcigraph/internal/fabric"
)

// txPacket is one DATA datagram held until acknowledged.
type txPacket struct {
	seq      uint32
	data     []byte    // encoded datagram (owned until acked)
	lastTx   time.Time // zero until the packet first reaches the wire
	attempts int       // retransmissions so far (drives exponential backoff)
}

// txRing is a FIFO of txPackets in sequence-number order. Packets enter at
// the tail when Send assigns their sequence number and leave from the head
// when a cumulative ack retires them, so the ring is always a contiguous
// run of sequence numbers [baseSeq, nextSeq). Keeping them ordered is what
// makes the retransmit scan O(due-packets) instead of O(window): entries at
// the head are the oldest transmissions, so the scan stops at the first
// entry whose timer has not expired.
//
// Packets are stored by value, and a retired slot keeps its encode buffer
// for the next packet pushed into it: the ring is its own buffer free list,
// holding at most one buffer per slot (the window bounds the slots).
type txRing struct {
	buf  []txPacket
	head int
	n    int
}

func (r *txRing) len() int { return r.n }

// push appends a packet with sequence number seq and returns it, its data
// a size-byte buffer for the caller to encode into: the slot's own when it
// is large enough, else a new one. The pointer is valid until the next push.
func (r *txRing) push(seq uint32, size int) *txPacket {
	if r.n == len(r.buf) {
		grown := make([]txPacket, max(2*len(r.buf), 16))
		for i := 0; i < r.n; i++ {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	tx := &r.buf[(r.head+r.n)%len(r.buf)]
	buf := tx.data[:cap(tx.data)]
	if len(buf) < size {
		buf = make([]byte, size)
	}
	*tx = txPacket{seq: seq, data: buf[:size]}
	r.n++
	return tx
}

// at returns the i-th oldest entry (0 ≤ i < len). The pointer is valid
// until the next push.
func (r *txRing) at(i int) *txPacket { return &r.buf[(r.head+i)%len(r.buf)] }

// popFront retires the oldest entry and returns it; its slot, buffer
// included, is reused by a later push, so the pointer is valid until then.
func (r *txRing) popFront() *txPacket {
	tx := &r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return tx
}

// flow is the reliability state for one peer, both directions.
//
// Send side (guarded by mu, callable from any goroutine): a sliding window
// of unacked packets plus the peer-advertised message credit, and the
// RFC 6298-style RTT estimator that times the window's retransmit timer.
// The tail `unsent` entries of the unacked ring have been assigned sequence
// numbers but not yet flushed to the wire (they batch into one vectored
// write). Receive side (guarded by rmu, taken by whichever reader shard the
// kernel hashed the peer to): cumulative in-order delivery with out-of-order
// buffering, and fragment reassembly into pooled frames. Cross-thread
// receive-side state is atomic: recvNext and consumed feed piggybacked acks
// stamped by senders, ackDue/recvSinceAck schedule standalone acks.
type flow struct {
	peer int

	// ---- send side ----
	mu          sync.Mutex
	nextSeq     uint32   // next sequence number to assign
	baseSeq     uint32   // oldest unacked sequence number
	unacked     txRing   // in-flight + pending packets, seq order
	unsent      int      // tail entries of unacked not yet on the wire
	msgsSent    uint64   // messages injected into this flow
	creditLimit uint64   // absolute message budget advertised by the peer
	scratch     [][]byte // reusable burst slice for flush/retransmit (mu held)

	// RTT estimator (mu held). srtt == 0 means "no sample yet": rto stays
	// at its conservative configured seed so a quiet link never retransmits
	// before the first measurement.
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration

	// Stall-detector episode state (mu held). ackStallWarned latches the
	// no-ack-progress warning until the cumulative ack moves again;
	// creditStallSince records when sends first hit the credit wall (zero
	// while credit is available) and creditStallWarned latches that
	// episode's warning until the peer raises the limit.
	ackStallWarned    bool
	creditStallSince  time.Time
	creditStallWarned bool

	// ---- receive side (rmu held) ----
	// rmu serializes datagram processing for this flow across reader shards:
	// the kernel's reuseport hash pins a flow to one shard socket, but a
	// rebalance (shard join/leave) can migrate it mid-stream. With a single
	// reader the lock is uncontended. Lock order: rmu → mu → xmitMu.
	rmu       sync.Mutex
	ooo       map[uint32]*dataPkt // early arrivals within the window
	asm       *fabric.Frame       // message being reassembled
	asmLen    int
	asmGot    int
	delivered uint64 // messages enqueued onto the delivery ring
	lastPgAck uint32 // last piggybacked ack processed (skip-if-unchanged)
	lastPgCr  uint64 // last piggybacked credit processed

	// ---- shared ----
	recvNext     atomic.Uint32 // next expected seq; written by reader, read by piggyback stamping
	consumed     atomic.Uint64 // messages released back by the consumer
	ackDue       atomic.Bool   // an ack/credit update should be sent
	recvSinceAck atomic.Int32  // data packets received since the last ack went out
	pendTx       atomic.Int32  // lock-free mirror of unsent
}

func newFlow(peer int, credits int, seedRTO time.Duration) *flow {
	return &flow{
		peer:        peer,
		ooo:         map[uint32]*dataPkt{},
		creditLimit: uint64(credits),
		rto:         seedRTO,
	}
}

// inFlight returns the number of unacked packets, sent or pending (mu held).
func (fl *flow) inFlight() uint32 { return fl.nextSeq - fl.baseSeq }

// rtoGranule is the clock-granularity floor added to the variance term:
// ack generation is quantized by the receiver's delayed-ack tick, so an RTO
// tighter than srtt + ~1ms would fire on ordinary ack batching rather than
// loss.
const rtoGranule = time.Millisecond

// observeRTT folds one round-trip sample into the estimator (RFC 6298) and
// rederives the flow's RTO, clamped to [minRTO, maxRTO]. mu held. Callers
// apply Karn's rule: never sample a packet that was retransmitted, since
// its ack cannot be matched to a specific transmission.
func (fl *flow) observeRTT(sample, minRTO, maxRTO time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if fl.srtt == 0 {
		fl.srtt = sample
		fl.rttvar = sample / 2
	} else {
		d := fl.srtt - sample
		if d < 0 {
			d = -d
		}
		fl.rttvar = (3*fl.rttvar + d) / 4
		fl.srtt = (7*fl.srtt + sample) / 8
	}
	rto := fl.srtt + 4*fl.rttvar
	if floor := fl.srtt + rtoGranule; rto < floor {
		rto = floor
	}
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	fl.rto = rto
}

// timeoutFor returns tx's current retransmit deadline distance: the flow RTO
// backed off exponentially per attempt, capped at maxRTO. mu held.
func (fl *flow) timeoutFor(tx *txPacket, maxRTO time.Duration) time.Duration {
	t := fl.rto << uint(tx.attempts)
	if t > maxRTO || t <= 0 {
		t = maxRTO
	}
	return t
}
