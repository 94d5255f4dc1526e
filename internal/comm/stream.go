package comm

import (
	"runtime"
	"sync"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/mpi"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// Stream is the communication shape Gemini uses (§IV-B1): many compute
// threads concurrently send variable-size batches to arbitrary peers, and a
// receiving loop takes messages as they arrive. With MPI this forces
// MPI_THREAD_MULTIPLE plus frequent MPI_Iprobe; with LCI each thread calls
// SEND-ENQ directly and the receive loop uses RECV-DEQ.
type Stream interface {
	Name() string
	// SendMsg sends data to peer with tag; safe from any compute thread.
	// The stream owns data (allocated with AllocBuf, possibly shortened)
	// afterwards and may recycle it, so the caller must not touch it again.
	SendMsg(thread, peer int, tag uint32, data []byte)
	// RecvMsg returns one incoming message, if any. Single consumer. The
	// caller must Release it; see Message.Release for how long Data lives.
	RecvMsg() (Message, bool)
	// AllocBuf returns a tracked, zeroed buffer (see Layer.AllocBuf).
	AllocBuf(n int) []byte
	Tracker() *memtrack.Tracker
	Stop()
}

// ---- LCI stream ----

// LCIStream sends straight from compute threads through the LCI Queue
// interface — the paper's "simple modifications to the Gemini runtime such
// that each sending/receiving thread uses LCI Queue instead of MPI". Each
// SendMsg is one SEND-ENQ on the shared LCI port: Gemini's per-thread
// batches already aggregate signals, so the stream ships them as they are.
// On top of the port it keeps only its receive discipline: a FIFO of
// received messages.
type LCIStream struct {
	lciPort

	// ready holds received messages awaiting delivery (single consumer,
	// like RecvMsg itself).
	ready     []Message
	readyHead int
}

// NewLCIStream builds an LCI stream over a fabric provider and starts its
// communication server.
func NewLCIStream(fep fabric.Provider, opt lci.Options) *LCIStream {
	s := &LCIStream{}
	s.start(fep, opt, func(m Message) { s.ready = append(s.ready, m) })
	return s
}

// Arrivals implements Doorbell. On a parking provider (the simulated
// fabric) it is the rank's owner doorbell (lci.Sharded.Arrivals), so
// Gemini's receive loop parks while its server does. Where the server polls
// (netfabric) it is nil, and the receive loop keeps yielding between polls.
func (s *LCIStream) Arrivals() <-chan struct{} {
	if !s.ep.Parks() {
		return nil
	}
	return s.ep.Arrivals()
}

// SendMsg implements Stream. A compute thread never pumps the receive path,
// so a back-pressured send only reaps completed sends while it retries.
func (s *LCIStream) SendMsg(thread, peer int, tag uint32, data []byte) {
	s.met.msgBytes.Observe(int64(len(data)))
	s.emit(s.workers[thread%maxStreamThreads], peer, tag, data, false)
}

// RecvMsg implements Stream.
func (s *LCIStream) RecvMsg() (Message, bool) {
	if s.readyHead == len(s.ready) {
		s.poll()
	}
	if s.readyHead == len(s.ready) {
		return Message{}, false
	}
	m := s.ready[s.readyHead]
	s.ready[s.readyHead] = Message{}
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	return m, true
}

// ---- MPI stream ----

// MPIStream is Gemini's baseline shape: every compute thread calls MPI_Isend
// directly under MPI_THREAD_MULTIPLE (serialized by the library's global
// lock), and the receive loop discovers messages with MPI_Iprobe +
// MPI_Irecv, retiring them with MPI_Test.
type MPIStream struct {
	c       *mpi.Comm
	tracker memtrack.Tracker

	mu       sync.Mutex
	pendSend []pendingMPISend

	pendRecv []pendingRecv

	met layerMetrics
}

type pendingMPISend struct {
	req *mpi.Request
	buf []byte
}

// NewMPIStream builds the MPI stream over comm c (ThreadMultiple mode).
func NewMPIStream(c *mpi.Comm) *MPIStream {
	s := &MPIStream{c: c}
	s.met = newLayerMetrics(nil, s.Name())
	return s
}

// Telemetry returns the stream's metrics registry.
func (s *MPIStream) Telemetry() *telemetry.Registry { return s.met.reg }

// SetTelemetry rewires the stream onto reg (harnesses running several
// in-process ranks give each its own registry). Call before any traffic.
func (s *MPIStream) SetTelemetry(reg *telemetry.Registry) {
	tr := s.met.tr
	s.met = newLayerMetrics(reg, s.Name())
	if tr != nil {
		s.met.tr = tr // keep an explicitly wired tracer across registry swaps
	}
}

// SetTracer rewires the stream's lifecycle tracer (nil disables). Call
// before any traffic.
func (s *MPIStream) SetTracer(tr *tracing.Tracer) { s.met.tr = tr }

// Name implements Stream.
func (s *MPIStream) Name() string { return "mpi-probe" }

// Tracker implements Stream.
func (s *MPIStream) Tracker() *memtrack.Tracker { return &s.tracker }

// AllocBuf implements Stream.
func (s *MPIStream) AllocBuf(n int) []byte {
	s.tracker.Alloc(n)
	return make([]byte, n)
}

// Stop implements Stream.
func (s *MPIStream) Stop() { s.WaitSends() }

// WaitSends completes every pending send, like MPI_Waitall over the
// stream's send requests followed by a flush of the library's deferred
// sends. A rendezvous send's data moves only inside this rank's own MPI
// calls, so a sender must call WaitSends before it stops calling MPI (for
// instance to block in a collective that makes no MPI call); otherwise its
// peer waits for the data forever. Call it from one goroutine, while no
// thread is sending.
func (s *MPIStream) WaitSends() {
	for {
		s.reapSends()
		s.mu.Lock()
		drained := len(s.pendSend) == 0
		s.mu.Unlock()
		if drained {
			break
		}
		runtime.Gosched()
	}
	if err := s.c.Flush(); err != nil {
		panic("mpi stream: " + err.Error())
	}
}

// SendMsg implements Stream.
func (s *MPIStream) SendMsg(thread, peer int, tag uint32, data []byte) {
	s.met.msgBytes.Observe(int64(len(data)))
	s.met.recordSend(peer, len(data), 0, 0)
	req, err := s.c.Isend(data, peer, int(tag))
	if err != nil {
		panic("mpi stream: " + err.Error())
	}
	done, err := s.c.Test(req)
	if err != nil {
		panic("mpi stream: " + err.Error())
	}
	if done {
		s.tracker.Free(cap(data))
		return
	}
	s.mu.Lock()
	s.pendSend = append(s.pendSend, pendingMPISend{req: req, buf: data})
	s.mu.Unlock()
}

func (s *MPIStream) reapSends() {
	s.mu.Lock()
	keep := s.pendSend[:0]
	for _, p := range s.pendSend {
		done, err := s.c.Test(p.req)
		if err != nil {
			s.mu.Unlock()
			panic("mpi stream: " + err.Error())
		}
		if done {
			s.tracker.Free(cap(p.buf))
		} else {
			keep = append(keep, p)
		}
	}
	s.pendSend = keep
	s.mu.Unlock()
}

// RecvMsg implements Stream.
func (s *MPIStream) RecvMsg() (Message, bool) {
	s.reapSends()
	// Probe for anything new (the frequent MPI_Iprobe of Gemini's recv
	// thread).
	if st, ok := s.c.Iprobe(mpi.AnySource, mpi.AnyTag); ok {
		buf := s.AllocBuf(st.Count)
		req, err := s.c.Irecv(buf, st.Source, st.Tag)
		if err != nil {
			panic("mpi stream: " + err.Error())
		}
		s.pendRecv = append(s.pendRecv, pendingRecv{req: req, buf: buf, src: st.Source})
	}
	for i, r := range s.pendRecv {
		done, err := s.c.Test(r.req)
		if err != nil {
			panic("mpi stream: " + err.Error())
		}
		if done {
			s.pendRecv = append(s.pendRecv[:i], s.pendRecv[i+1:]...)
			n := len(r.buf)
			s.met.recordRecv(r.req.Status().Source, r.req.Status().Count, 0)
			return Message{
				Peer:    r.req.Status().Source,
				Tag:     uint32(r.req.Status().Tag),
				Data:    r.buf[:r.req.Status().Count],
				release: func() { s.tracker.Free(n) },
			}, true
		}
	}
	return Message{}, false
}
