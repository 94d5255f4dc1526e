package comm

import (
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// Registry names for the communication layers (DESIGN.md §11). The
// message-size histogram is per layer/stream (label `layer`), so one
// process running an LCI layer next to an MPI baseline keeps their traffic
// profiles separate; everything else is shared across layers.
const (
	// MetricBundleRecords is the records-per-bundle histogram of the probe
	// layer's MPI bundles.
	MetricBundleRecords  = "lci_comm_bundle_records"
	MetricSendRetrySpins = "lci_comm_send_retry_spins"

	// MetricMsgsCoalesced and MetricBundles are registered by no layer: the
	// LCI layers ship every message as one SEND-ENQ and bundle nothing. The
	// names stay for readers that still look them up, which read 0.
	MetricMsgsCoalesced = "lci_comm_msgs_coalesced_total"
	MetricBundles       = "lci_comm_bundles_total"

	// metricBadBundles counts received bundles dropped whole for malformed
	// record framing.
	metricBadBundles = "lci_comm_bad_bundles_total"
)

// MsgBytesMetric returns the per-layer logical message-size histogram name.
// The histogram's count is the number of logical messages and its sum the
// logical payload bytes, so one observation per send covers Fig. 4's
// messages/bytes axes at once.
func MsgBytesMetric(layer string) string {
	return `lci_comm_msg_bytes{layer="` + layer + `"}`
}

// TelemetryProvider is implemented by layers and streams wired to a
// registry. Harnesses type-assert for it, keeping the Layer and Stream
// interfaces (and their test fakes) unchanged.
type TelemetryProvider interface {
	Telemetry() *telemetry.Registry
}

// layerMetrics is the per-layer handle set. The zero value is a no-op
// (nil-safe telemetry methods), so a disabled registry costs one branch per
// send. tr is the lifecycle tracer (nil = dark path), wired by layers that
// receive one explicitly.
type layerMetrics struct {
	reg        *telemetry.Registry
	msgBytes   *telemetry.Histogram
	retrySpins *telemetry.Histogram
	badBundles *telemetry.Counter
	tr         *tracing.Tracer
}

func newLayerMetrics(reg *telemetry.Registry, layer string) layerMetrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	m := layerMetrics{reg: reg}
	if !reg.Enabled() {
		return m
	}
	m.msgBytes = reg.Histogram(MsgBytesMetric(layer))
	m.retrySpins = reg.Histogram(MetricSendRetrySpins)
	m.badBundles = reg.Counter(metricBadBundles)
	return m
}

// observeSpins records how long a send spun on pool exhaustion before being
// accepted. Unblocked sends (the overwhelmingly common case) skip the
// histogram entirely, so the spin distribution shows only actual
// back-pressure events.
func (m *layerMetrics) observeSpins(spins int64) {
	if spins > 0 {
		m.retrySpins.Observe(spins)
	}
}

// recordSend traces one accepted layer-level send; spins > 0 additionally
// records the ErrResource retry streak that preceded acceptance. msgid is
// the core request's global id (0 on MPI-backed layers, which have no LCI
// message id).
func (m *layerMetrics) recordSend(peer, size int, msgid uint64, spins int64) {
	if m.tr == nil {
		return
	}
	if spins > 0 {
		m.tr.RecordArg(tracing.EvRetry, peer, tracing.ProtoNone, size, uint32(spins), msgid)
	}
	m.tr.Record(tracing.EvLayerSend, peer, tracing.ProtoNone, size, msgid)
}

// recordRecv traces one layer-level delivery.
func (m *layerMetrics) recordRecv(peer, size int, msgid uint64) {
	if m.tr == nil {
		return
	}
	m.tr.Record(tracing.EvLayerRecv, peer, tracing.ProtoNone, size, msgid)
}
