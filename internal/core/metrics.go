package lci

import (
	"strconv"
	"strings"
	"time"

	"lcigraph/internal/telemetry"
)

// Registry names for the endpoint's own metrics (DESIGN.md §11).
const (
	MetricTxEGR = `lci_core_tx_packets_total{proto="egr"}`
	MetricTxRTS = `lci_core_tx_packets_total{proto="rts"}`
	MetricTxRTR = `lci_core_tx_packets_total{proto="rtr"}`
	MetricTxFRG = `lci_core_tx_packets_total{proto="frg"}`

	MetricRxEGR     = `lci_core_rx_packets_total{proto="egr"}`
	MetricRxRTS     = `lci_core_rx_packets_total{proto="rts"}`
	MetricRxRTR     = `lci_core_rx_packets_total{proto="rtr"}`
	MetricRxFRG     = `lci_core_rx_packets_total{proto="frg"}`
	MetricRxPutDone = `lci_core_rx_packets_total{proto="put_done"}`

	MetricSendFailures = "lci_core_send_failures_total"
	MetricRecvDeq      = "lci_core_recv_deq_total"

	MetricPollsBusy = `lci_core_progress_polls_total{state="busy"}`
	MetricPollsIdle = `lci_core_progress_polls_total{state="idle"}`
	MetricParks     = "lci_core_progress_parks_total"

	MetricPoolFree     = "lci_core_pool_free"
	MetricPoolCapacity = "lci_core_pool_capacity"
	MetricQueueDepth   = "lci_core_queue_depth"

	MetricProgressIterNS = "lci_core_progress_iter_ns"
	MetricEagerLatencyNS = "lci_core_eager_latency_ns"
)

// Sampling strides for the timed paths. Calling time.Now() per message (or
// per progress poll) would dwarf the 64-byte datapath itself, so latency
// histograms sample every Nth event; the untimed events still count through
// the cheap atomic counters.
const (
	eagerSampleMask    = 64 - 1  // time every 64th eager send
	progressSampleMask = 256 - 1 // time every 256th progress iteration
)

// coreMetrics holds the endpoint's live metric handles. The zero value (all
// nil) is fully operative as a no-op: telemetry.Counter and Histogram
// methods are nil-safe, so a disabled registry costs one predictable-branch
// nil check per site.
type coreMetrics struct {
	rxEGR, rxRTS, rxRTR, rxFRG, rxPutDone *telemetry.Counter
	txRTR, txFRG                          *telemetry.Counter
	busy, idle                            *telemetry.Counter
	parks                                 *telemetry.Counter
	progressIter                          *telemetry.Histogram
	eagerLat                              *telemetry.Histogram

	// Busy/idle poll tallies accumulate in plain fields — Progress runs
	// under the endpoint's progress lock, and a spinning progress loop calls
	// it millions of times a second, so even an uncontended atomic per
	// iteration is measurable on the 64 B datapath. flushPolls folds them into the registry counters
	// once per sampling window (the counters lag by < progressSampleMask+1
	// polls, irrelevant against the idle spin rate).
	busyN, idleN int64
}

// countPoll classifies one Progress call as busy or idle; the ratio is the
// paper's progress-engine utilization signal.
func (m *coreMetrics) countPoll(worked bool) {
	if worked {
		m.busyN++
	} else {
		m.idleN++
	}
}

// flushPolls publishes the accumulated busy/idle tallies.
func (m *coreMetrics) flushPolls() {
	if m.busyN > 0 {
		m.busy.Add(m.busyN)
		m.busyN = 0
	}
	if m.idleN > 0 {
		m.idle.Add(m.idleN)
		m.idleN = 0
	}
}

// shardMetric splices a `shard="i"` label into a metric name. Single-shard
// endpoints (total ≤ 1, i.e. every pre-sharding caller) get the name back
// unchanged, so the exported Metric* constants, NetStatsFromSnapshot and the
// CI scrape greps keep matching byte-for-byte at the default configuration.
func shardMetric(name string, idx, total int) string {
	if total <= 1 {
		return name
	}
	lbl := `shard="` + strconv.Itoa(idx) + `"`
	if i := strings.LastIndexByte(name, '}'); i >= 0 {
		return name[:i] + "," + lbl + "}"
	}
	return name + "{" + lbl + "}"
}

// metricName resolves a base metric name for this endpoint, adding the
// shard label when the endpoint is one shard of several.
func (e *Endpoint) metricName(base string) string {
	return shardMetric(base, e.shardIdx, e.shardTotal)
}

// initMetrics wires the endpoint into reg. The existing stat atomics stay
// the source of truth for TX/EGR/RTS, failures, and receives — they are
// re-read at snapshot time via counter funcs; only packet types with no
// pre-existing counter (RTR, FRG, per-proto RX) get live registry counters.
// Under endpoint sharding every series carries this shard's label — each
// shard owns its pool, queue and progress loop, so per-shard is the natural
// grain; rank totals are a sum over the label.
func (e *Endpoint) initMetrics(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	n := e.metricName
	e.m = coreMetrics{
		rxEGR:        reg.Counter(n(MetricRxEGR)),
		rxRTS:        reg.Counter(n(MetricRxRTS)),
		rxRTR:        reg.Counter(n(MetricRxRTR)),
		rxFRG:        reg.Counter(n(MetricRxFRG)),
		rxPutDone:    reg.Counter(n(MetricRxPutDone)),
		txRTR:        reg.Counter(n(MetricTxRTR)),
		txFRG:        reg.Counter(n(MetricTxFRG)),
		busy:         reg.Counter(n(MetricPollsBusy)),
		idle:         reg.Counter(n(MetricPollsIdle)),
		parks:        reg.Counter(n(MetricParks)),
		progressIter: reg.Histogram(n(MetricProgressIterNS)),
		eagerLat:     reg.Histogram(n(MetricEagerLatencyNS)),
	}
	reg.CounterFunc(n(MetricTxEGR), e.statEager.Load)
	reg.CounterFunc(n(MetricTxRTS), e.statRendezvous.Load)
	reg.CounterFunc(n(MetricSendFailures), e.statSendFails.Load)
	reg.CounterFunc(n(MetricRecvDeq), e.statRecvs.Load)
	reg.GaugeFunc(n(MetricPoolFree), telemetry.AggSum, func() int64 { return int64(e.pool.FreeCount()) })
	reg.GaugeFunc(n(MetricPoolCapacity), telemetry.AggSum, func() int64 { return int64(e.pool.Capacity()) })
	reg.GaugeFunc(n(MetricQueueDepth), telemetry.AggSum, func() int64 { return int64(e.q.Len()) })
}

// observeEagerLatency finishes a sampled eager injection-latency
// measurement (t0 zero means the send was not sampled).
func (e *Endpoint) observeEagerLatency(t0 time.Time) {
	if !t0.IsZero() {
		e.m.eagerLat.Observe(time.Since(t0).Nanoseconds())
	}
}
