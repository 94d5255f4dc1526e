package comm

import (
	"runtime"
	"sync"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/telemetry"
)

// maxStreamThreads bounds the compute threads that send concurrently; each
// maps to its own pool worker id (thread%maxStreamThreads).
const maxStreamThreads = 64

// lciPort is the LCI send/receive core under LCILayer and LCIStream — the
// paper's "each sending/receiving thread uses LCI Queue" glue, written once:
// SEND-ENQ with retry and in-flight bookkeeping, RECV-DEQ with rendezvous
// completion, and a communication server progressing the network. Every
// send leaves through emit as it is handed over: one message, one SEND-ENQ.
// The owner adds its receive discipline: every received message goes to
// deliver, from the goroutine that called poll.
type lciPort struct {
	// ep is the rank's progress-shard set: one endpoint (and one progress
	// goroutine) at Options.Shards ≤ 1, K of everything above that. The
	// port only ever posts through Sharded, which routes each send to the
	// shard owning that peer/tag — compute threads on different shards
	// never contend on the same pool partition or queues.
	ep      *lci.Sharded
	tracker memtrack.Tracker
	// cache recycles the port's gather and rendezvous buffers
	// (bufcache.go); it charges tracker.
	cache bufCache

	// workers maps compute-thread indices to pool worker ids; workers[0]
	// doubles as the owner goroutine's (Exchange, PostTag, Stop).
	workers [maxStreamThreads]int

	met layerMetrics

	// deliver receives each completed message. Only the owner's receive
	// goroutine calls poll, so deliver and pendingRecv need no lock.
	deliver func(Message)
	// pendingRecv holds incomplete receive requests (rendezvous in flight).
	pendingRecv []*lci.Request

	// sendMu guards pendingSend: sends whose buffers are not yet reusable.
	// Compute threads append and reap concurrently.
	sendMu      sync.Mutex
	pendingSend []sendInFlight

	stop   chan struct{}
	served chan struct{} // closed once the communication server has exited
}

type sendInFlight struct {
	req *lci.Request
	buf []byte // returns to the cache once req is done
}

// start builds the port in place over a fabric provider and starts its
// communication server. Eager payloads travel in pooled packets and frames;
// every other communication buffer — gather buffers from AllocBuf and
// rendezvous receive buffers (the cache is the endpoint's Allocator) —
// recycles through the port's bounded cache, which is why the LCI
// footprint stays small in Fig. 5 and steady-state traffic allocates no
// buffers.
func (p *lciPort) start(fep fabric.Provider, opt lci.Options, deliver func(Message)) {
	p.deliver = deliver
	p.stop = make(chan struct{})
	p.served = make(chan struct{})
	p.cache.tracker = &p.tracker
	opt.Allocator = &p.cache
	p.ep = lci.NewSharded(fep, opt)
	for i := range p.workers {
		p.workers[i] = p.ep.RegisterWorker()
	}
	p.met = newLayerMetrics(opt.Telemetry, p.Name())
	p.met.tr = p.ep.Tracer()
	go func() {
		defer close(p.served)
		p.ep.Serve(p.stop)
	}()
}

// Name implements Layer and Stream.
func (p *lciPort) Name() string { return "lci" }

// Telemetry returns the port's metrics registry.
func (p *lciPort) Telemetry() *telemetry.Registry { return p.met.reg }

// Tracker implements Layer and Stream.
func (p *lciPort) Tracker() *memtrack.Tracker { return &p.tracker }

// AllocBuf implements Layer and Stream. The buffer comes zeroed from the
// port's cache (gathers OR bits into it) and is charged at its capacity.
func (p *lciPort) AllocBuf(n int) []byte {
	b := p.cache.Alloc(n)
	clear(b)
	return b
}

// emit is the port's one SEND-ENQ: retry on pool exhaustion, then in-flight
// bookkeeping; data returns to the cache once it is reusable. Every retry
// reaps completed sends; drain additionally pumps receives, which only the
// receive owner may do — compute threads must not touch the receive state.
func (p *lciPort) emit(worker, dst int, tag uint32, data []byte, drain bool) {
	var spins int64
	for {
		r, ok := p.ep.SendEnq(worker, dst, tag, data)
		if ok {
			p.met.observeSpins(spins)
			p.met.recordSend(dst, len(data), r.MsgID, spins)
			if r.Done() {
				p.cache.Free(data)
			} else {
				p.sendMu.Lock()
				p.pendingSend = append(p.pendingSend, sendInFlight{req: r, buf: data})
				p.sendMu.Unlock()
			}
			return
		}
		spins++
		// Pool exhausted: retriable, never fatal.
		var worked bool
		if drain {
			worked = p.poll()
		} else {
			worked = p.reapSends()
		}
		if !worked {
			runtime.Gosched()
		}
	}
}

// reapSends retires completed sends. It reports whether any completed.
func (p *lciPort) reapSends() bool {
	worked := false
	p.sendMu.Lock()
	keep := p.pendingSend[:0]
	for _, s := range p.pendingSend {
		if s.req.Done() {
			p.cache.Free(s.buf)
			worked = true
		} else {
			keep = append(keep, s)
		}
	}
	p.pendingSend = keep
	p.sendMu.Unlock()
	return worked
}

// poll drains RECV-DEQ, completes pending rendezvous receives and reaps
// completed sends; every completed message reaches deliver. The paper's
// layer "maintains a list of incomplete requests ... by simply checking the
// boolean-type status of each request". It reports whether anything moved.
func (p *lciPort) poll() bool { return p.pollWith(false) }

// pollInline is poll for the owner's receive waits (RecvTag, Exchange):
// when RECV-DEQ comes back empty it runs one progress pass on the owner's
// goroutine instead of waiting for the communication server.
// That pass also flushes the provider's deferred transmits, so sends the
// owner posted since its last wait leave now.
func (p *lciPort) pollInline() bool { return p.pollWith(true) }

func (p *lciPort) pollWith(inline bool) bool {
	worked := p.recvDeq()
	if !worked && inline && p.ep.Progress() {
		worked = true
		p.recvDeq()
	}
	keep := p.pendingRecv[:0]
	for _, r := range p.pendingRecv {
		if r.Done() {
			p.complete(r)
			worked = true
		} else {
			keep = append(keep, r)
		}
	}
	p.pendingRecv = keep
	if p.reapSends() {
		worked = true
	}
	return worked
}

// recvDeq drains RECV-DEQ: done requests are delivered, rendezvous ones
// join pendingRecv. It reports whether anything was dequeued.
func (p *lciPort) recvDeq() bool {
	worked := false
	for {
		r, ok := p.ep.RecvDeq()
		if !ok {
			return worked
		}
		worked = true
		if r.Done() {
			p.complete(r)
		} else {
			p.pendingRecv = append(p.pendingRecv, r)
		}
	}
}

// complete converts a completed receive request into deliveries. Rendezvous
// buffers came from the cache, already charged; eager payloads alias pooled
// wire frames, charged while held and recycled to the fabric on release.
// The protocol is told by size, as SEND-ENQ chose it: Done() after RECV-DEQ
// cannot tell, since a rendezvous may land before the first check.
func (p *lciPort) complete(r *lci.Request) {
	n := len(r.Data)
	eager := n <= p.ep.EagerLimit()
	if eager {
		p.tracker.Alloc(n)
	}
	p.met.recordRecv(r.Rank, n, r.MsgID)
	p.deliver(Message{
		Peer:    r.Rank,
		Tag:     r.Tag,
		Data:    r.Data,
		release: func() { p.releaseRecv(r, eager) },
	})
}

// releaseRecv returns a received request's buffer: an eager payload's frame
// to the fabric, a rendezvous buffer to the cache. It clears r.Data, so a
// second call — a copy of the Message released again — finds a nil buffer,
// which frees no bytes and which the cache does not park.
func (p *lciPort) releaseRecv(r *lci.Request, eager bool) {
	b := r.Data
	r.Data = nil
	if eager {
		p.tracker.Free(len(b))
		r.Release() // recycles the frame; a no-op the second time
		return
	}
	p.cache.Free(b)
}

// Stop implements Layer and Stream: it waits until every send and every
// rendezvous receive has completed, then stops the communication server and
// waits for it to exit — the server releases a completion's frame only after
// marking the request done. Only the receive owner may call it.
func (p *lciPort) Stop() {
	for {
		p.sendMu.Lock()
		n := len(p.pendingSend)
		p.sendMu.Unlock()
		if n == 0 && len(p.pendingRecv) == 0 {
			break
		}
		if !p.poll() {
			runtime.Gosched()
		}
	}
	close(p.stop)
	<-p.served
}
