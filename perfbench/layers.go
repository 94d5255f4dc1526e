package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/netfabric"
)

// layerUnits lists every per-layer metric and its unit; BENCHMARK.json's
// per_layer list must match it (bench_test.go checks). A metric of a layer
// the workload does not use reads 0.
var layerUnits = map[string]string{
	"go.gc_pause_us_per_op": "us",
	"go.gc_cycles_per_op":   "count",

	"graph.gen_s":       "s",
	"partition.build_s": "s",
	"ranks.ready_s":     "s",

	"abelian.self_us_per_op": "us",
	"abelian.rounds_per_op":  "count",

	"comm.exchange_us_per_op":    "us",
	"comm.exchange_calls_per_op": "count",
	"comm.exchange_bytes_per_op": "B",

	"gemini.self_us_per_op":      "us",
	"gemini.rounds_per_op":       "count",
	"comm.stream_sends_per_op":   "count",
	"comm.stream_send_us_per_op": "us",
	"comm.stream_recv_hit_frac":  "frac",
	"comm.msgs_per_bundle":       "count",

	"comm.posts_per_op":     "count",
	"comm.post_us_per_op":   "us",
	"comm.recvtag_hit_frac": "frac",

	"core.progress_busy_frac":   "frac",
	"core.send_failures_per_op": "count",
	"core.eager_latency_p50_us": "us",

	"fabric.frames_per_op":       "count",
	"fabric.send_us_per_frame":   "us",
	"fabric.poll_hit_frac":       "frac",
	"fabric.send_retries_per_op": "count",

	"netfabric.frames_per_op":        "count",
	"netfabric.retx_per_op":          "count",
	"netfabric.spurious_retx_frac":   "frac",
	"netfabric.acks_per_frame":       "count",
	"netfabric.gso_trains_per_op":    "count",
	"netfabric.send_us_per_frame":    "us",
	"netfabric.credit_stalls_per_op": "count",
	"netfabric.srtt_us":              "us",

	"serve.server_p50_us":     "us",
	"serve.server_tail_us":    "us",
	"serve.cache_hit_frac":    "frac",
	"serve.subqueries_per_op": "count",
	"serve.shed_frac":         "frac",
	"loadgen.late_p99_us":     "us",

	"trace.overhead_frac":  "frac",
	"env.cpu_avail_before": "frac",
	"env.cpu_avail_after":  "frac",
	"env.cpu_use_window":   "frac",
	"e2e.tail_percentile":  "%",
	"e2e.samples":          "count",
}

// perLayer computes the per-layer metrics. Counters the program exports
// (telemetry deltas) and the Go runtime figures come from the untraced
// window, so they describe exactly what an end-to-end run does; span-based
// figures come from the traced window. "Per op" divides a job-wide total
// (both ranks) by the window's op count.
func perLayer(wl *workload, p *passResult, traced *window, tr *tracer,
	before, after cpuProbe) map[string]metric {
	plain, setups := p.all, p.setups
	v := map[string]float64{}
	n := float64(len(plain.lat))
	nt := float64(len(traced.lat))
	st := &tr.stats
	calls := func(k kind) float64 { return float64(st[k].calls.Load()) }
	hitFrac := func(ks ...kind) float64 {
		var hit, all float64
		for _, k := range ks {
			hit += calls(k)
			all += calls(k) + float64(st[k].empty.Load())
		}
		return ratio(hit, all)
	}
	usPer := func(k kind, per float64) float64 { return ratio(float64(st[k].ns.Load())/1e3, per) }

	v["go.gc_pause_us_per_op"] = us(plain.gcPause) / n
	v["go.gc_cycles_per_op"] = float64(plain.gcCycles) / n
	v["graph.gen_s"] = medianSetup(setups, func(s setupTimes) time.Duration { return s.gen })
	v["partition.build_s"] = medianSetup(setups, func(s setupTimes) time.Duration { return s.part })
	v["ranks.ready_s"] = medianSetup(setups, func(s setupTimes) time.Duration { return s.ready })

	self := selfTimes(tr.snapshot())
	switch wl.name {
	case "pagerank-udp":
		v["abelian.self_us_per_op"] = float64(self[kOp]) / 1e3 / nt
		v["abelian.rounds_per_op"] = float64(plain.rounds) / n
	case "bfs-gemini-sim":
		v["gemini.self_us_per_op"] = float64(self[kOp]) / 1e3 / nt
		v["gemini.rounds_per_op"] = float64(plain.rounds) / n
	}
	v["comm.exchange_us_per_op"] = usPer(kExchange, nt)
	v["comm.exchange_calls_per_op"] = calls(kExchange) / nt
	v["comm.exchange_bytes_per_op"] = float64(st[kExchange].bytes.Load()) / nt
	v["comm.stream_sends_per_op"] = calls(kSendMsg) / nt
	v["comm.stream_send_us_per_op"] = usPer(kSendMsg, nt)
	v["comm.stream_recv_hit_frac"] = hitFrac(kRecvMsg)
	v["comm.posts_per_op"] = calls(kPostTag) / nt
	v["comm.post_us_per_op"] = usPer(kPostTag, nt)
	v["comm.recvtag_hit_frac"] = hitFrac(kRecvTag)

	tel := plain.tel
	v["comm.msgs_per_bundle"] = ratio(tel.counter(comm.MetricMsgsCoalesced), tel.counter(comm.MetricBundles))
	busy, idle := tel.counterPrefix(lci.MetricPollsBusy), tel.counterPrefix(lci.MetricPollsIdle)
	v["core.progress_busy_frac"] = ratio(busy, busy+idle)
	v["core.send_failures_per_op"] = tel.counterPrefix(lci.MetricSendFailures) / n
	v["core.eager_latency_p50_us"] = float64(tel.hist(lci.MetricEagerLatencyNS).Quantile(0.5)) / 1e3

	frames := tel.counter(fabric.MetricSendFrames)
	sendUS := usPer(kProvSend, calls(kProvSend))
	if wl.udp {
		retx := tel.counter(fabric.MetricRetransmits)
		v["netfabric.frames_per_op"] = frames / n
		v["netfabric.retx_per_op"] = retx / n
		v["netfabric.spurious_retx_frac"] = ratio(tel.counter(fabric.MetricPacketsDropped), retx)
		v["netfabric.acks_per_frame"] = ratio(tel.counter(fabric.MetricAcksSent), frames)
		v["netfabric.gso_trains_per_op"] = tel.counter(fabric.MetricGSOSends) / n
		v["netfabric.send_us_per_frame"] = sendUS
		v["netfabric.credit_stalls_per_op"] = tel.counter(fabric.MetricCreditStalls) / n
		v["netfabric.srtt_us"] = tel.gaugeMax(netfabric.MetricSRTT) / 1e3
	} else {
		v["fabric.frames_per_op"] = frames / n
		v["fabric.send_us_per_frame"] = sendUS
		v["fabric.poll_hit_frac"] = hitFrac(kProvPoll, kProvPollBatch)
		v["fabric.send_retries_per_op"] = tel.counter(fabric.MetricSendRetries) / n
	}

	tail := tailPercentile(len(p.segs[0].lat))
	lat := tel.hist("lci_serve_latency_ns")
	v["serve.server_p50_us"] = float64(lat.Quantile(0.5)) / 1e3
	v["serve.server_tail_us"] = float64(lat.Quantile(tail/100)) / 1e3
	hits, misses := tel.counter("lci_serve_cache_hits_total"), tel.counter("lci_serve_cache_misses_total")
	v["serve.cache_hit_frac"] = ratio(hits, hits+misses)
	v["serve.subqueries_per_op"] = tel.counter("lci_serve_subqueries_total") / n
	var shed, answered float64
	for name := range tel.s.Counters {
		if !strings.HasPrefix(name, "lci_serve_queries_total{") {
			continue
		}
		answered += tel.counter(name)
		if strings.Contains(name, `status="shed"`) {
			shed += tel.counter(name)
		}
	}
	v["serve.shed_frac"] = ratio(shed, answered)
	v["loadgen.late_p99_us"] = us(percentile(plain.late, 99))

	p0 := percentile(append([]time.Duration(nil), plain.lat...), 50)
	p1 := percentile(append([]time.Duration(nil), traced.lat...), 50)
	v["trace.overhead_frac"] = ratio(float64(p1), float64(p0)) - 1
	v["env.cpu_avail_before"] = before.Avail
	v["env.cpu_avail_after"] = after.Avail
	v["env.cpu_use_window"] = plain.cpuUse()
	v["e2e.tail_percentile"] = tail
	v["e2e.samples"] = n

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{Value: v[name], Unit: unit}
	}
	return out
}

func printLayers(name string, m map[string]metric) {
	fmt.Printf("%s per-layer (traced run; 0 = layer not used by this workload):\n", name)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
