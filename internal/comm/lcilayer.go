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
// Exchange, and fixed-epoch reserved tags for PostTag/RecvTag. It exposes
// the port's doorbell (Doorbell), so an idle owner can park instead of
// polling.
type LCILayer struct {
	lciPort
	rank int

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
	return l
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
		l.emit(l.workers[0], p, eff, buf, true)
	}
	// Receive the epoch's messages in arrival order, polling the port.
	for got, want := 0, countExpected(expect, l.rank); got < want; {
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
