// Package abelian implements a distributed vertex-program runtime in the
// style of the paper's Abelian system (§II, §III-A): general vertex-cut
// partitioning with master/mirror proxies, BSP rounds of compute followed
// by field synchronization, partition-aware selection of reduce/broadcast,
// updated-only value shipping with bitmap metadata, and parallel
// gather/scatter on the compute threads.
//
// Applications (internal/apps) are written directly against Runtime and
// Field, the way Abelian programs use its sync structures.
package abelian

import (
	"time"

	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/trace"
)

// HealthSink receives the runtime's per-round health signals. NoteRound
// accounts one finished round and the time this rank spent in end-of-round
// communication (field sync + allreduce), which is dominated by waiting for
// stragglers — the superstep skew signal (a rank that finishes early waits
// long; the straggler waits least). Pump gives the sink a turn on the
// comm-layer-owning goroutine for its own reserved-tag traffic (heartbeat
// digests). health.Monitor implements it.
type HealthSink interface {
	NoteRound(barrier time.Duration)
	Pump()
}

// Runtime is one host's Abelian runtime instance.
type Runtime struct {
	Host *cluster.Host
	HG   *partition.HostGraph
	Pol  partition.Policy

	// Health, if set, receives NoteRound/Pump once per BSP round, from
	// RecordRound.
	Health HealthSink

	nextTag uint32
	fields  []*Field

	// Per-round instrumentation (Fig. 6): wall time in compute vs
	// non-overlapped communication.
	ComputeTime time.Duration
	CommTime    time.Duration
	Rounds      int

	// Trace, if set, receives one record per round (RecordRound).
	Trace       *trace.Trace
	lastCompute time.Duration
	lastComm    time.Duration
	healthComm  time.Duration // CommTime at the last health note

	// Per-round traffic comes from the layer's message-size histogram
	// (count = messages, sum = payload bytes), differenced between
	// RecordRound calls. Resolved lazily from the layer's telemetry.
	msgBytes  *telemetry.Histogram
	metOnce   bool
	lastMsgs  int64
	lastBytes int64
}

// New builds a runtime for host h over its partition.
func New(h *cluster.Host, hg *partition.HostGraph, pol partition.Policy) *Runtime {
	return &Runtime{Host: h, HG: hg, Pol: pol}
}

// Compute runs fn, which drives the host's compute threads through
// Host.Pool, and accounts its wall time as computation.
func (rt *Runtime) Compute(fn func()) {
	start := time.Now()
	fn()
	rt.ComputeTime += time.Since(start)
}

// noteHealthRound feeds the health sink one finished round and the comm
// time accumulated since the last note. It runs on the goroutine that owns
// the comm layer (rounds are driven from the host main goroutine), which is
// what makes the Pump call safe under the AsyncLayer contract.
func (rt *Runtime) noteHealthRound() {
	if rt.Health == nil {
		return
	}
	rt.Health.NoteRound(rt.CommTime - rt.healthComm)
	rt.healthComm = rt.CommTime
	rt.Health.Pump()
}

// RecordRound emits one trace record covering the compute and comm time
// accumulated since the previous record, and gives the health sink its
// per-round turn. The trace part is a no-op without a Trace.
func (rt *Runtime) RecordRound() {
	rt.noteHealthRound()
	if rt.Trace == nil {
		return
	}
	if !rt.metOnce {
		rt.metOnce = true
		if tp, ok := rt.Host.Layer.(comm.TelemetryProvider); ok {
			if reg := tp.Telemetry(); reg.Enabled() {
				rt.msgBytes = reg.Histogram(comm.MsgBytesMetric(rt.Host.Layer.Name()))
			}
		}
	}
	msgs, bytes := rt.msgBytes.Count(), rt.msgBytes.Sum() // nil-safe: 0 when dark
	rt.Trace.Append(trace.Round{
		Host:    rt.Host.Rank,
		Round:   rt.Rounds,
		Compute: rt.ComputeTime - rt.lastCompute,
		Comm:    rt.CommTime - rt.lastComm,
		Bytes:   bytes - rt.lastBytes,
		Msgs:    msgs - rt.lastMsgs,
	})
	rt.lastCompute = rt.ComputeTime
	rt.lastComm = rt.CommTime
	rt.lastMsgs, rt.lastBytes = msgs, bytes
}
