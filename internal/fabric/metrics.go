package fabric

import "lcigraph/internal/telemetry"

// Canonical registry names for the Stats fields. Every provider (the
// simulator here, internal/netfabric for UDP) re-expresses its counters
// under these names via RegisterStats, so harnesses merge and render one
// schema regardless of transport (DESIGN.md §11).
const (
	MetricSendFrames     = "lci_fabric_send_frames_total"
	MetricSendBytes      = "lci_fabric_send_bytes_total"
	MetricPuts           = "lci_fabric_puts_total"
	MetricPutBytes       = "lci_fabric_put_bytes_total"
	MetricPolls          = "lci_fabric_polls_total"
	MetricPollHits       = "lci_fabric_poll_hits_total"
	MetricSendRetries    = "lci_fabric_send_retries_total"
	MetricPutRetries     = "lci_fabric_put_retries_total"
	MetricFramesRecycled = "lci_fabric_frames_recycled_total"
	MetricBatchPolls     = "lci_fabric_batch_polls_total"

	MetricRetransmits    = "lci_net_retransmits_total"
	MetricPacketsDropped = "lci_net_packets_dropped_total"
	MetricAcksSent       = "lci_net_acks_sent_total"
	MetricCreditStalls   = "lci_net_credit_stalls_total"
	MetricSendBatches    = "lci_net_send_batches_total"
	MetricRecvBatches    = "lci_net_recv_batches_total"
	MetricGSOSends       = "lci_net_gso_sends_total"
	MetricGROCoalesced   = "lci_net_gro_coalesced_total"
	MetricSockDrops      = "lci_net_sock_drops_total"
	MetricPiggybackAcks  = "lci_net_piggyback_acks_total"
	MetricDelayedAcks    = "lci_net_delayed_acks_total"
	MetricSockErrors     = "lci_net_sock_errors_total"
	MetricInlineRx       = "lci_net_inline_rx_total"

	MetricRingPending       = "lci_fabric_ring_pending"
	MetricFramesOutstanding = "lci_fabric_frames_outstanding"
)

// RegisterStats maps a provider's Stats snapshot onto the registry as
// counter funcs under the canonical names: the provider's own atomics stay
// the single source of truth — no parallel counting on the hot path —
// and the registry reads them at snapshot time. Several providers in one
// process (an in-process job's endpoints) registering into one registry sum.
func RegisterStats(reg *telemetry.Registry, stats func() Stats) {
	if !reg.Enabled() || stats == nil {
		return
	}
	field := func(name string, get func(Stats) int64) {
		reg.CounterFunc(name, func() int64 { return get(stats()) })
	}
	field(MetricSendFrames, func(s Stats) int64 { return s.SendFrames })
	field(MetricSendBytes, func(s Stats) int64 { return s.SendBytes })
	field(MetricPuts, func(s Stats) int64 { return s.Puts })
	field(MetricPutBytes, func(s Stats) int64 { return s.PutBytes })
	field(MetricPolls, func(s Stats) int64 { return s.Polls })
	field(MetricPollHits, func(s Stats) int64 { return s.PollHits })
	field(MetricSendRetries, func(s Stats) int64 { return s.SendRetries })
	field(MetricPutRetries, func(s Stats) int64 { return s.PutRetries })
	field(MetricFramesRecycled, func(s Stats) int64 { return s.FramesRecycled })
	field(MetricBatchPolls, func(s Stats) int64 { return s.BatchPolls })
	field(MetricRetransmits, func(s Stats) int64 { return s.Retransmits })
	field(MetricPacketsDropped, func(s Stats) int64 { return s.PacketsDropped })
	field(MetricAcksSent, func(s Stats) int64 { return s.AcksSent })
	field(MetricCreditStalls, func(s Stats) int64 { return s.CreditStalls })
	field(MetricSendBatches, func(s Stats) int64 { return s.SendBatches })
	field(MetricRecvBatches, func(s Stats) int64 { return s.RecvBatches })
	field(MetricGSOSends, func(s Stats) int64 { return s.GSOSends })
	field(MetricGROCoalesced, func(s Stats) int64 { return s.GROCoalesced })
	field(MetricSockDrops, func(s Stats) int64 { return s.SockDrops })
	field(MetricPiggybackAcks, func(s Stats) int64 { return s.PiggybackAcks })
	field(MetricDelayedAcks, func(s Stats) int64 { return s.DelayedAcks })
	field(MetricSockErrors, func(s Stats) int64 { return s.SockErrors })
	field(MetricInlineRx, func(s Stats) int64 { return s.InlineRx })
}

// MetricsRegistrar is implemented by providers that can expose their
// counters and gauges through a telemetry registry. Both in-repo providers
// (*Endpoint here, *netfabric.Provider) implement it; harnesses type-assert
// so the Provider interface itself stays a pure verb set.
type MetricsRegistrar interface {
	RegisterMetrics(reg *telemetry.Registry)
}

// RegisterMetrics re-expresses this endpoint's Stats as registry metrics and
// adds the simulator's instantaneous gauges: receive-ring depth and (once
// per fabric) the pooled frames currently held by consumers.
func (e *Endpoint) RegisterMetrics(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	RegisterStats(reg, e.Stats)
	reg.GaugeFunc(MetricRingPending, telemetry.AggSum, func() int64 { return int64(e.Pending()) })
	reg.GaugeFunc(MetricFramesOutstanding, telemetry.AggMax, e.fab.FramesOutstanding)
}

var _ MetricsRegistrar = (*Endpoint)(nil)
