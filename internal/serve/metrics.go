package serve

import (
	"fmt"

	"lcigraph/internal/telemetry"
)

// metrics is the serving layer's telemetry surface (scraped live through
// the /metrics endpoint alongside the transport counters):
//
//	lci_serve_queries_total{op=,status=}  admitted-query outcomes
//	lci_serve_latency_ns{op=}             end-to-end latency distributions
//	lci_serve_cache_{hits,misses}_total   result-cache effectiveness
//	lci_serve_subqueries_total            adjacency batches scattered
//	lci_serve_served_total                adjacency batches answered here
//	lci_serve_bad_replies_total           adjacency replies dropped as malformed
//	lci_serve_parks_total                 idle loop iterations parked on the doorbell
//	lci_serve_inflight                    queries currently resident (gauge)
type metrics struct {
	ok      map[uint8]*telemetry.Counter
	shed    map[uint8]*telemetry.Counter
	errs    map[uint8]*telemetry.Counter
	latency map[uint8]*telemetry.Histogram

	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	subqueries  *telemetry.Counter
	served      *telemetry.Counter
	badReplies  *telemetry.Counter
	parks       *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry, inflight func() int64) *metrics {
	m := &metrics{
		ok:      map[uint8]*telemetry.Counter{},
		shed:    map[uint8]*telemetry.Counter{},
		errs:    map[uint8]*telemetry.Counter{},
		latency: map[uint8]*telemetry.Histogram{},
	}
	for _, op := range []uint8{OpKHop, OpDist, OpPPR} {
		name := OpName(op)
		m.ok[op] = reg.Counter(fmt.Sprintf(`lci_serve_queries_total{op=%q,status="ok"}`, name))
		m.shed[op] = reg.Counter(fmt.Sprintf(`lci_serve_queries_total{op=%q,status="shed"}`, name))
		m.errs[op] = reg.Counter(fmt.Sprintf(`lci_serve_queries_total{op=%q,status="error"}`, name))
		m.latency[op] = reg.Histogram(fmt.Sprintf(`lci_serve_latency_ns{op=%q}`, name))
	}
	m.cacheHits = reg.Counter("lci_serve_cache_hits_total")
	m.cacheMisses = reg.Counter("lci_serve_cache_misses_total")
	m.subqueries = reg.Counter("lci_serve_subqueries_total")
	m.served = reg.Counter("lci_serve_served_total")
	m.badReplies = reg.Counter("lci_serve_bad_replies_total")
	m.parks = reg.Counter("lci_serve_parks_total")
	reg.GaugeFunc("lci_serve_inflight", telemetry.AggSum, inflight)
	return m
}
