package main

import (
	"lcigraph/internal/comm"
	"lcigraph/internal/fabric"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/telemetry"
)

// The traced run wraps the objects the benchmark builds and hands to the
// program, and times each call into them from outside. Every wrapper
// forwards the optional interfaces the program type-asserts on those
// objects, so the traced run takes the same code paths as the untraced one:
//
//   - serve.New asserts comm.AsyncLayer; abelian asserts
//     comm.TelemetryProvider on the layer;
//   - lci.NewSharded asserts fabric.Sharder on the provider, and the
//     benchmark registers provider counters through fabric.MetricsRegistrar.
//
// abelian's fused-send path is not forwarded: it is taken only with
// Runtime.Fused set, which the benchmark never sets.

// asyncLayer is what the benchmark's layers implement (comm.LCILayer).
type asyncLayer interface {
	comm.AsyncLayer
	comm.TelemetryProvider
}

// tracedLayer wraps a rank's communication layer. Its methods run on the
// rank's main goroutine (a layer is driven by one goroutine).
type tracedLayer struct {
	in   asyncLayer
	t    *tracer
	rank int
}

var (
	_ comm.AsyncLayer        = (*tracedLayer)(nil)
	_ comm.TelemetryProvider = (*tracedLayer)(nil)
)

func (l *tracedLayer) Name() string                   { return l.in.Name() }
func (l *tracedLayer) AllocBuf(n int) []byte          { return l.in.AllocBuf(n) }
func (l *tracedLayer) Tracker() *memtrack.Tracker     { return l.in.Tracker() }
func (l *tracedLayer) Stop()                          { l.in.Stop() }
func (l *tracedLayer) Telemetry() *telemetry.Registry { return l.in.Telemetry() }

func (l *tracedLayer) Exchange(tag uint32, out [][]byte, expect []bool, recvMax []int,
	onRecv func(peer int, data []byte)) {
	n := 0
	for p, b := range out {
		if p != l.rank {
			n += len(b)
		}
	}
	t0 := l.t.now()
	l.in.Exchange(tag, out, expect, recvMax, onRecv)
	l.t.record(kExchange, l.rank, laneMain, t0, n)
}

func (l *tracedLayer) PostTag(peer int, tag uint32, buf []byte) {
	n := len(buf)
	t0 := l.t.now()
	l.in.PostTag(peer, tag, buf)
	l.t.record(kPostTag, l.rank, laneMain, t0, n)
}

func (l *tracedLayer) RecvTag(tag uint32) (comm.Message, bool) {
	t0 := l.t.now()
	m, ok := l.in.RecvTag(tag)
	if ok {
		l.t.record(kRecvTag, l.rank, laneMain, t0, len(m.Data))
	} else {
		l.t.empty(kRecvTag, l.rank, laneMain, t0)
	}
	return m, ok
}

// streamImpl is what the benchmark's streams implement (comm.LCIStream).
type streamImpl interface {
	comm.Stream
	comm.TelemetryProvider
}

// tracedStream wraps a rank's Gemini stream. SendMsg runs on compute
// threads (its lane is the thread index); RecvMsg on the main goroutine.
type tracedStream struct {
	in   streamImpl
	t    *tracer
	rank int
}

var (
	_ comm.Stream            = (*tracedStream)(nil)
	_ comm.TelemetryProvider = (*tracedStream)(nil)
)

func (s *tracedStream) Name() string                   { return s.in.Name() }
func (s *tracedStream) AllocBuf(n int) []byte          { return s.in.AllocBuf(n) }
func (s *tracedStream) Tracker() *memtrack.Tracker     { return s.in.Tracker() }
func (s *tracedStream) Stop()                          { s.in.Stop() }
func (s *tracedStream) Telemetry() *telemetry.Registry { return s.in.Telemetry() }

func (s *tracedStream) SendMsg(thread, peer int, tag uint32, data []byte) {
	n := len(data)
	t0 := s.t.now()
	s.in.SendMsg(thread, peer, tag, data)
	s.t.record(kSendMsg, s.rank, laneThread+thread%(laneAny-laneThread), t0, n)
}

func (s *tracedStream) RecvMsg() (comm.Message, bool) {
	t0 := s.t.now()
	m, ok := s.in.RecvMsg()
	if ok {
		s.t.record(kRecvMsg, s.rank, laneMain, t0, len(m.Data))
	} else {
		s.t.empty(kRecvMsg, s.rank, laneMain, t0)
	}
	return m, ok
}

// providerImpl is what both fabric backends implement.
type providerImpl interface {
	fabric.Provider
	fabric.MetricsRegistrar
	fabric.Sharder
}

// tracedProvider wraps a rank's fabric provider.
type tracedProvider struct {
	in   providerImpl
	t    *tracer
	rank int
}

var (
	_ fabric.Provider         = (*tracedProvider)(nil)
	_ fabric.MetricsRegistrar = (*tracedProvider)(nil)
	_ fabric.Sharder          = (*tracedProvider)(nil)
)

func (p *tracedProvider) Rank() int                               { return p.in.Rank() }
func (p *tracedProvider) Size() int                               { return p.in.Size() }
func (p *tracedProvider) EagerLimit() int                         { return p.in.EagerLimit() }
func (p *tracedProvider) HasRDMA() bool                           { return p.in.HasRDMA() }
func (p *tracedProvider) RegisterRegion(b []byte) (uint32, error) { return p.in.RegisterRegion(b) }
func (p *tracedProvider) DeregisterRegion(rkey uint32)            { p.in.DeregisterRegion(rkey) }
func (p *tracedProvider) Pending() int                            { return p.in.Pending() }
func (p *tracedProvider) Stats() fabric.Stats                     { return p.in.Stats() }
func (p *tracedProvider) RegisterMetrics(reg *telemetry.Registry) { p.in.RegisterMetrics(reg) }

// ShardViews wraps every view, so sharded endpoints stay traced.
func (p *tracedProvider) ShardViews(k int, route fabric.ShardRoute) []fabric.Provider {
	views := p.in.ShardViews(k, route)
	for i, v := range views {
		views[i] = &tracedView{Provider: v, t: p.t, rank: p.rank}
	}
	return views
}

func (p *tracedProvider) Send(dst int, header, meta uint64, data []byte) error {
	return tracedSend(p.in, p.t, p.rank, dst, header, meta, data)
}

func (p *tracedProvider) Put(dst int, rkey uint32, offset int, data []byte, imm uint64) error {
	return tracedPut(p.in, p.t, p.rank, dst, rkey, offset, data, imm)
}

func (p *tracedProvider) Poll() *fabric.Frame { return tracedPoll(p.in, p.t, p.rank) }

func (p *tracedProvider) PollBatch(dst []*fabric.Frame) int {
	return tracedPollBatch(p.in, p.t, p.rank, dst)
}

// tracedView wraps one shard view returned by ShardViews (a plain Provider).
type tracedView struct {
	fabric.Provider
	t    *tracer
	rank int
}

func (v *tracedView) Send(dst int, header, meta uint64, data []byte) error {
	return tracedSend(v.Provider, v.t, v.rank, dst, header, meta, data)
}

func (v *tracedView) Put(dst int, rkey uint32, offset int, data []byte, imm uint64) error {
	return tracedPut(v.Provider, v.t, v.rank, dst, rkey, offset, data, imm)
}

func (v *tracedView) Poll() *fabric.Frame { return tracedPoll(v.Provider, v.t, v.rank) }

func (v *tracedView) PollBatch(dst []*fabric.Frame) int {
	return tracedPollBatch(v.Provider, v.t, v.rank, dst)
}

// A refused send (ErrResource) did no work; it counts as an empty call.
func tracedSend(in fabric.Provider, t *tracer, rank, dst int, header, meta uint64, data []byte) error {
	t0 := t.now()
	err := in.Send(dst, header, meta, data)
	if err == nil {
		t.record(kProvSend, rank, laneAny, t0, len(data))
	} else {
		t.empty(kProvSend, rank, laneAny, t0)
	}
	return err
}

func tracedPut(in fabric.Provider, t *tracer, rank, dst int, rkey uint32, offset int, data []byte, imm uint64) error {
	t0 := t.now()
	err := in.Put(dst, rkey, offset, data, imm)
	if err == nil {
		t.record(kProvPut, rank, laneAny, t0, len(data))
	} else {
		t.empty(kProvPut, rank, laneAny, t0)
	}
	return err
}

func tracedPoll(in fabric.Provider, t *tracer, rank int) *fabric.Frame {
	t0 := t.now()
	f := in.Poll()
	if f != nil {
		t.record(kProvPoll, rank, laneAny, t0, 1)
	} else {
		t.empty(kProvPoll, rank, laneAny, t0)
	}
	return f
}

func tracedPollBatch(in fabric.Provider, t *tracer, rank int, dst []*fabric.Frame) int {
	t0 := t.now()
	n := in.PollBatch(dst)
	if n > 0 {
		t.record(kProvPollBatch, rank, laneAny, t0, n)
	} else {
		t.empty(kProvPollBatch, rank, laneAny, t0)
	}
	return n
}
