package comm

import (
	"runtime"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
)

// LCILayer is the §III-D communication layer: the calling thread uses
// SEND-ENQ and RECV-DEQ directly (through the shared LCI port); a
// communication-server goroutine runs the LCI progress loop, and the owner
// runs a pass itself when its receive waits find RECV-DEQ empty. On top of
// the port it keeps its receive discipline — epochs and a per-tag stash for
// Exchange and fused sends, and fixed-epoch reserved tags for
// PostTag/RecvTag — and the coalescer that bundles fused sends. It exposes
// the port's doorbell (Doorbell), so an idle owner can park instead of
// polling.
type LCILayer struct {
	lciPort
	rank int

	// coal packs small fused sends into near-eager-limit bundles per peer.
	// FinishFused and Stop flush it.
	coal *coalescer

	epochs epochs
	stash  stash
}

// NewLCILayer builds the LCI layer over a fabric provider and starts its
// communication server.
func NewLCILayer(fep fabric.Provider, opt lci.Options) *LCILayer {
	l := &LCILayer{
		rank:   fep.Rank(),
		epochs: epochs{},
		stash:  stash{},
	}
	l.start(fep, opt, l.stash.put)
	l.coal = newCoalescer(fep.Size(), l.ep.EagerLimit(), l.emit, &l.cache)
	l.coal.initTelemetry(l.met.reg)
	return l
}

// CoalesceStats returns the fused-send coalescer's counters.
func (l *LCILayer) CoalesceStats() CoalesceStats { return l.coal.stats() }

// Stop implements Layer: it ships any fused sends still parked, then drains
// the port.
func (l *LCILayer) Stop() {
	l.coal.flushAll(l.workers[0])
	l.drain()
}

// Exchange implements Layer.
func (l *LCILayer) Exchange(tag uint32, out [][]byte, expect []bool, recvMax []int,
	onRecv func(peer int, data []byte)) {

	eff := l.epochs.next(tag)
	for p, buf := range out {
		if p == l.rank || buf == nil {
			continue
		}
		l.met.msgBytes.Observe(int64(len(buf)))
		l.emit(l.workers[0], p, eff, buf, nil, true)
	}
	l.recvEpoch(eff, countExpected(expect, l.rank), onRecv)
}

// recvEpoch hands onRecv the messages stashed for eff, in arrival order,
// polling the port until want of them have been processed.
func (l *LCILayer) recvEpoch(eff uint32, want int, onRecv func(peer int, data []byte)) {
	for got := 0; got < want; {
		if m, ok := l.stash.take(eff); ok {
			onRecv(m.Peer, m.Data)
			m.Release()
			got++
			continue
		}
		if !l.pollInline() {
			runtime.Gosched()
		}
	}
	l.stash.done(eff)
}

// BeginFused opens a fused exchange for tag: compute threads may then call
// SendFused for individual peers as their gathers complete — the paper's
// future-work direction of integrating LCI with the runtime so completed
// buffers enter the network without waiting for the full gather phase
// (§VI; Fig. 2's "completed buffers are enqueued").
func (l *LCILayer) BeginFused(tag uint32) uint32 { return l.epochs.next(tag) }

// SendFused sends one peer's payload from any compute thread. thread
// selects the packet-pool locality shard. Small payloads coalesce with other
// fused messages for the same peer; a message with no companion by
// FinishFused ships alone, unwrapped.
func (l *LCILayer) SendFused(thread, peer int, eff uint32, buf []byte) {
	if peer == l.rank || buf == nil {
		return
	}
	l.met.msgBytes.Observe(int64(len(buf)))
	l.coal.add(l.workers[thread%maxStreamThreads], peer, eff, buf, nil)
}

// FinishFused completes the fused exchange: it flushes any coalesced
// messages still parked, then receives (in arrival order) every expected
// message for eff, exactly like the tail of Exchange.
func (l *LCILayer) FinishFused(eff uint32, expect []bool, onRecv func(peer int, data []byte)) {
	l.FinishFusedCount(eff, countExpected(expect, l.rank), onRecv)
}

// FinishFusedCount is FinishFused for epochs with more than one message per
// peer (the coalescer's sweet spot): want is the total number of logical
// messages expected for eff.
func (l *LCILayer) FinishFusedCount(eff uint32, want int, onRecv func(peer int, data []byte)) {
	l.coal.flushAll(l.workers[0])
	l.recvEpoch(eff, want, onRecv)
}
