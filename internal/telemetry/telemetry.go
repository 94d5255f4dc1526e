// Package telemetry is the runtime's observability subsystem: a registry of
// sharded atomic counters, callback-backed gauges, and power-of-two-bucket
// histograms, meant to be cheap enough to leave enabled on the message hot
// path (the ~3% budget is unverified until it is re-measured with perfbench
// pairs; NewDisabled is the off switch).
//
// The design follows the paper's needs (DESIGN.md §11): the evaluation's
// signals — per-protocol packet counts, packet-pool occupancy, progress-loop
// utilization, message-size distributions — are all either monotone counts
// (Counter / CounterFunc), instantaneous levels sampled at snapshot time
// (GaugeFunc), or distributions (Histogram).
//
// Hot-path cost model:
//
//   - Counter.Add is one uncontended atomic add; the counter is sharded
//     across cache-line-padded cells indexed by the caller's stack address,
//     so concurrent writers from different goroutines rarely collide.
//   - Histogram.Observe is two atomic adds (bucket + sum) and a bits.Len64.
//   - Gauges cost nothing until a snapshot is taken: they are closures over
//     existing state (pool free counts, queue lengths, flow RTT estimates).
//   - A disabled registry (NewDisabled) hands out nil
//     metrics; every method is a no-op on a nil receiver, so the disabled
//     hot path pays one predictable branch.
//
// Snapshots (snapshot.go) are point-in-time copies that marshal to JSON,
// merge across ranks, and render in Prometheus text format (prom.go).
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// numShards is the counter shard count (power of two). 16 shards × 64 B is
// 1 KiB per counter — counters are few and long-lived, so the padding is
// cheap insurance against false sharing between writer threads.
const numShards = 16

type shard struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line so shards never share one
}

// shardIdx picks a shard from the caller's stack address. Distinct
// goroutines live on distinct stacks, so concurrent writers spread across
// shards without thread-local state or a hashed goroutine id; the same
// goroutine maps to a stable shard (modulo stack growth), which keeps its
// counter cell cache-hot.
func shardIdx() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>10) & (numShards - 1)
}

// Counter is a monotone counter sharded across padded atomic cells. The
// zero value is NOT usable — obtain counters from a Registry. A nil counter
// (from a disabled registry) no-ops.
type Counter struct {
	shards [numShards]shard
}

// Add increments the counter by v.
func (c *Counter) Add(v int64) {
	if c == nil {
		return
	}
	c.shards[shardIdx()].v.Add(v)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. It is linearizable only when writers are quiescent;
// for live reads it is a racy-but-monotone estimate, which is all snapshots
// and per-round deltas need.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var s int64
	for i := range c.shards {
		s += c.shards[i].v.Load()
	}
	return s
}

// NumBuckets is the histogram bucket count: bucket 0 holds v ≤ 0, bucket i
// (1..64) holds values with bit length i, i.e. 2^(i-1) ≤ v < 2^i.
const NumBuckets = 65

// BucketOf returns the bucket index for an observation.
func BucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketHigh returns the largest value bucket i holds (its inclusive upper
// bound; 0 for bucket 0).
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return 1<<63 - 1
	}
	return 1<<uint(i) - 1
}

// Histogram is a power-of-two-bucket histogram. Observe is two atomic adds;
// Count and Sum double as the "messages" and "bytes" counters for size
// histograms, so instrumenting a message costs one Observe, not three
// metric updates. A nil histogram no-ops.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[BucketOf(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Agg says how a gauge aggregates across duplicate registrations and across
// ranks when snapshots merge.
type Agg uint8

const (
	// AggSum adds gauge values (pool free counts, queue depths).
	AggSum Agg = iota
	// AggMax keeps the worst value (per-flow SRTT/RTO estimates).
	AggMax
)

func (a Agg) String() string {
	if a == AggMax {
		return "max"
	}
	return "sum"
}

type gaugeEntry struct {
	agg Agg
	fns []func() int64
}

// Registry owns a namespace of metrics. Metric names are Prometheus-style:
// a base name plus optional inline labels, e.g.
// `lci_core_rx_packets_total{proto="egr"}`. Lookup is get-or-create, so two
// components naming the same metric share one instance; duplicate
// CounterFunc/GaugeFunc registrations accumulate and aggregate (sum for
// counter funcs, the gauge's Agg for gauges) — several endpoints in one
// process registering the same stat is well defined.
//
// A nil or disabled registry hands out nil metrics and empty snapshots.
type Registry struct {
	rank     int
	disabled bool

	mu         sync.Mutex
	counters   map[string]*Counter
	hists      map[string]*Histogram
	counterFns map[string][]func() int64
	gauges     map[string]*gaugeEntry
}

// NewEnabled returns a live registry for rank.
func NewEnabled(rank int) *Registry {
	return &Registry{
		rank:       rank,
		counters:   map[string]*Counter{},
		hists:      map[string]*Histogram{},
		counterFns: map[string][]func() int64{},
		gauges:     map[string]*gaugeEntry{},
	}
}

// NewDisabled returns a registry whose metrics are nil no-ops (the
// telemetry-off baseline).
func NewDisabled(rank int) *Registry {
	return &Registry{rank: rank, disabled: true}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry, a live rank-0 registry created
// on first use. Components fall back to it when no registry is wired
// explicitly; launched ranks wire their own.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewEnabled(0)
	})
	return defaultReg
}

// Rank returns the registry's rank.
func (r *Registry) Rank() int {
	if r == nil {
		return 0
	}
	return r.rank
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil && !r.disabled }

// Counter returns the named counter, creating it on first use. Returns nil
// (a no-op counter) on a disabled registry.
func (r *Registry) Counter(name string) *Counter {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil (a no-op histogram) on a disabled registry.
func (r *Registry) Histogram(name string) *Histogram {
	if !r.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterFunc registers a callback re-expressing an existing counter (e.g. a
// fabric.Stats field backed by its own atomic) as a registry metric: no
// second count is maintained on the hot path; the callback is read at
// snapshot time. Multiple registrations under one name sum.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if !r.Enabled() || fn == nil {
		return
	}
	r.mu.Lock()
	r.counterFns[name] = append(r.counterFns[name], fn)
	r.mu.Unlock()
}

// GaugeFunc registers a callback sampled at snapshot time (an instantaneous
// level: pool occupancy, queue depth, SRTT). Multiple registrations under
// one name aggregate with agg; the first registration fixes the mode.
func (r *Registry) GaugeFunc(name string, agg Agg, fn func() int64) {
	if !r.Enabled() || fn == nil {
		return
	}
	r.mu.Lock()
	g, ok := r.gauges[name]
	if !ok {
		g = &gaugeEntry{agg: agg}
		r.gauges[name] = g
	}
	g.fns = append(g.fns, fn)
	r.mu.Unlock()
}
