package telemetry

import (
	"math"
	"sort"
	"testing"
)

// exactQuantile computes the true q-quantile of vals (0-indexed fractional
// rank, linear interpolation between order statistics) — the reference the
// bucket estimate is pinned against.
func exactQuantile(vals []int64, q float64) float64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r := q * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	if hi >= len(s) {
		hi = len(s) - 1
	}
	frac := r - float64(lo)
	return float64(s[lo]) + frac*float64(s[hi]-s[lo])
}

// histOf builds a HistSnap from raw observations.
func histOf(vals []int64) HistSnap {
	h := HistSnap{Buckets: make([]int64, NumBuckets)}
	for _, v := range vals {
		h.Buckets[BucketOf(v)]++
		h.Count++
		h.Sum += v
	}
	return h
}

// TestQuantileInterpolation pins the interpolated estimate against exact
// quantiles of known distributions. The estimator assumes observations are
// uniform within a bucket, so for distributions that actually fill their
// buckets uniformly the error must be small relative to the bucket span —
// far tighter than the old upper-bound-only estimate, which always returned
// BucketHigh of the selected bucket.
func TestQuantileInterpolation(t *testing.T) {
	// 1..1023 fills buckets 1..10 exactly uniformly.
	uniform := make([]int64, 0, 1023)
	for v := int64(1); v <= 1023; v++ {
		uniform = append(uniform, v)
	}
	cases := []struct {
		name string
		vals []int64
		q    float64
		tol  float64 // allowed |estimate - exact|
	}{
		{"uniform-p50", uniform, 0.50, 2},
		{"uniform-p90", uniform, 0.90, 6},
		{"uniform-p99", uniform, 0.99, 6},
		{"uniform-p10", uniform, 0.10, 2},
		// 1..16: small count, spans buckets 1..5.
		{"small-p50", []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 0.50, 1.5},
		// All mass in one bucket: estimate must land inside [512, 1023],
		// near the span midpoint region the ranks select.
		{"onebucket-p50", []int64{600, 700, 800, 900}, 0.50, 256},
	}
	for _, tc := range cases {
		h := histOf(tc.vals)
		got := h.Quantile(tc.q)
		want := exactQuantile(tc.vals, tc.q)
		if math.Abs(float64(got)-want) > tc.tol {
			t.Errorf("%s: Quantile(%.2f) = %d, exact %.1f, tol %.1f",
				tc.name, tc.q, got, want, tc.tol)
		}
	}
}

// TestQuantileBeatsUpperBound: on a uniform fill the interpolated estimate
// must be strictly better than the old bucket-upper-bound answer for a
// mid-bucket quantile.
func TestQuantileBeatsUpperBound(t *testing.T) {
	vals := make([]int64, 0, 512)
	for v := int64(512); v < 1024; v++ {
		vals = append(vals, v) // all in bucket 10: [512, 1023]
	}
	h := histOf(vals)
	got := h.Quantile(0.25)
	exact := exactQuantile(vals, 0.25)
	oldErr := math.Abs(float64(BucketHigh(10)) - exact) // 1023 - 639.75
	newErr := math.Abs(float64(got) - exact)
	if newErr >= oldErr {
		t.Fatalf("interpolated p25 = %d (err %.1f) not better than upper bound 1023 (err %.1f)",
			got, newErr, oldErr)
	}
	if newErr > 2 {
		t.Fatalf("interpolated p25 = %d, exact %.2f: error %.1f too large for a uniform bucket",
			got, exact, newErr)
	}
}

// TestQuantileEdges covers the degenerate shapes detectors hit in practice.
func TestQuantileEdges(t *testing.T) {
	var empty HistSnap
	if got := empty.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	zeros := histOf([]int64{0, 0, 0})
	if got := zeros.Quantile(0.5); got != 0 {
		t.Fatalf("all-zero Quantile = %d, want 0", got)
	}
	one := histOf([]int64{100}) // bucket 7: [64, 127]
	got := one.Quantile(0.99)
	if got < 64 || got > 127 {
		t.Fatalf("single-observation Quantile = %d, want within its bucket [64,127]", got)
	}
	// Out-of-range q clamps instead of panicking.
	if got := one.Quantile(-0.5); got < 64 || got > 127 {
		t.Fatalf("Quantile(-0.5) = %d, want clamped into bucket", got)
	}
	if got := one.Quantile(1.5); got < 64 || got > 127 {
		t.Fatalf("Quantile(1.5) = %d, want clamped into bucket", got)
	}
}

// TestQuantileMonotone: estimates must never decrease as q increases, even
// across bucket boundaries (hysteresis in the SLO detectors depends on it).
func TestQuantileMonotone(t *testing.T) {
	h := histOf([]int64{1, 3, 3, 7, 20, 20, 100, 1000, 4096, 4097})
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		got := h.Quantile(q)
		if got < prev {
			t.Fatalf("Quantile(%.2f) = %d < previous %d", q, got, prev)
		}
		prev = got
	}
}

// TestMergeShardLabeledSeries: PR 8 splices shard="i" labels into core
// metric names; merging rank snapshots must sum per exact series name and
// never fold differently-labeled shards together.
func TestMergeShardLabeledSeries(t *testing.T) {
	busy := func(shard int) string {
		return map[int]string{
			0: `lci_core_progress_polls_total{state="busy",shard="0"}`,
			1: `lci_core_progress_polls_total{state="busy",shard="1"}`,
		}[shard]
	}
	r0 := NewEnabled(0)
	r0.Counter(busy(0)).Add(10)
	r0.Counter(busy(1)).Add(20)
	r1 := NewEnabled(1)
	r1.Counter(busy(0)).Add(1)
	r1.Counter(busy(1)).Add(2)

	m := Merge(r0.Snapshot(), r1.Snapshot())
	if got := m.Counter(busy(0)); got != 11 {
		t.Fatalf("shard 0 merged = %d, want 11", got)
	}
	if got := m.Counter(busy(1)); got != 22 {
		t.Fatalf("shard 1 merged = %d, want 22", got)
	}
	if m.Ranks != 2 {
		t.Fatalf("ranks = %d, want 2", m.Ranks)
	}
	// The unlabeled base name must not appear: labels are part of identity.
	if _, ok := m.Counters[`lci_core_progress_polls_total{state="busy"}`]; ok {
		t.Fatal("merge invented an unlabeled series from labeled shards")
	}
}

// TestMergeGaugeAggAcrossRanks: sum gauges (pool occupancy) add across
// ranks, max gauges (RTO estimates) keep the worst, and a gauge present on
// only some ranks merges from those that have it.
func TestMergeGaugeAggAcrossRanks(t *testing.T) {
	mk := func(rank int, free, rto int64, withRTO bool) *Snapshot {
		r := NewEnabled(rank)
		r.GaugeFunc("lci_core_pool_free", AggSum, func() int64 { return free })
		if withRTO {
			r.GaugeFunc("lci_fabric_rto_ns", AggMax, func() int64 { return rto })
		}
		return r.Snapshot()
	}
	m := Merge(
		mk(0, 100, 5_000_000, true),
		mk(1, 50, 9_000_000, true),
		mk(2, 25, 0, false),
		nil, // a lost gather contribution is skipped
	)
	if got := m.Gauge("lci_core_pool_free"); got != 175 {
		t.Fatalf("sum gauge = %d, want 175", got)
	}
	if g := m.Gauges["lci_core_pool_free"]; g.Agg != "sum" {
		t.Fatalf("sum gauge mode = %q", g.Agg)
	}
	if got := m.Gauge("lci_fabric_rto_ns"); got != 9_000_000 {
		t.Fatalf("max gauge = %d, want 9000000", got)
	}
	if g := m.Gauges["lci_fabric_rto_ns"]; g.Agg != "max" {
		t.Fatalf("max gauge mode = %q", g.Agg)
	}
	if m.Ranks != 3 {
		t.Fatalf("ranks = %d, want 3", m.Ranks)
	}
}

// TestMergeShardLabeledHistograms: shard-labeled histograms keep separate
// series too, with per-bucket sums.
func TestMergeShardLabeledHistograms(t *testing.T) {
	name := `lci_core_msg_bytes{shard="1"}`
	r0 := NewEnabled(0)
	r0.Histogram(name).Observe(64)
	r1 := NewEnabled(1)
	r1.Histogram(name).Observe(64)
	r1.Histogram(name).Observe(1024)

	m := Merge(r0.Snapshot(), r1.Snapshot())
	h := m.Hist(name)
	if h.Count != 3 || h.Sum != 64+64+1024 {
		t.Fatalf("merged hist count=%d sum=%d", h.Count, h.Sum)
	}
	if h.Buckets[BucketOf(64)] != 2 || h.Buckets[BucketOf(1024)] != 1 {
		t.Fatalf("merged buckets wrong: %v", h.Buckets[:12])
	}
}

// TestQuantileExtremes pins q=0 and q=1: the minimum estimate must land at
// the lower bound of the lowest occupied bucket and the maximum at the
// upper bound of the highest occupied one — lci-ops report prints
// both ends of the latency distribution and must not invent values outside
// the observed bucket range.
func TestQuantileExtremes(t *testing.T) {
	h := histOf([]int64{5, 6, 7, 100, 100, 3000}) // buckets 3 [4,7], 7 [64,127], 12 [2048,4095]
	if got := h.Quantile(0); got != 4 {
		t.Fatalf("Quantile(0) = %d, want 4 (lower bound of lowest occupied bucket)", got)
	}
	if got := h.Quantile(1); got != BucketHigh(12) {
		t.Fatalf("Quantile(1) = %d, want %d (upper bound of highest occupied bucket)", got, BucketHigh(12))
	}
	// Every intermediate q stays inside the occupied range.
	for q := 0.0; q <= 1.0; q += 0.05 {
		if got := h.Quantile(q); got < 4 || got > BucketHigh(12) {
			t.Fatalf("Quantile(%.2f) = %d escapes the occupied bucket range [4,%d]", q, got, BucketHigh(12))
		}
	}
}

// TestQuantileSingleBucket: with all mass in one bucket every quantile must
// stay inside that bucket's span and remain monotone in q.
func TestQuantileSingleBucket(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = 512 + int64(i) // all in bucket 10: [512, 1023]
	}
	h := histOf(vals)
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.1 {
		got := h.Quantile(q)
		if got < 512 || got > 1023 {
			t.Fatalf("single-bucket Quantile(%.1f) = %d, want within [512,1023]", q, got)
		}
		if got < prev {
			t.Fatalf("single-bucket Quantile(%.1f) = %d < previous %d", q, got, prev)
		}
		prev = got
	}
	if got := h.Quantile(0); got != 512 {
		t.Fatalf("single-bucket Quantile(0) = %d, want 512", got)
	}
	if got := h.Quantile(1); got != 1023 {
		t.Fatalf("single-bucket Quantile(1) = %d, want 1023", got)
	}
}

// TestMergeDisjointMetricSets: ranks running different subsystems (a serve
// coordinator vs a worker, or a rank whose evidence predates a metric's
// first use) contribute disjoint metric names; the merge must keep every
// series with its own value and aggregation mode, not drop or cross-wire
// them. lci-ops diff merges per-rank evidence snapshots exactly this
// way.
func TestMergeDisjointMetricSets(t *testing.T) {
	r0 := NewEnabled(0)
	r0.Counter("only_rank0_total").Add(5)
	r0.GaugeFunc("only_rank0_depth", AggMax, func() int64 { return 3 })
	r0.Histogram("only_rank0_bytes").Observe(64)
	r1 := NewEnabled(1)
	r1.Counter("only_rank1_total").Add(7)
	r1.GaugeFunc("only_rank1_free", AggSum, func() int64 { return 2 })
	r1.Histogram("only_rank1_bytes").Observe(128)

	m := Merge(r0.Snapshot(), r1.Snapshot())
	if m.Ranks != 2 {
		t.Fatalf("ranks = %d, want 2", m.Ranks)
	}
	if got := m.Counter("only_rank0_total"); got != 5 {
		t.Fatalf("rank-0-only counter = %d, want 5", got)
	}
	if got := m.Counter("only_rank1_total"); got != 7 {
		t.Fatalf("rank-1-only counter = %d, want 7", got)
	}
	if got := m.Gauge("only_rank0_depth"); got != 3 {
		t.Fatalf("rank-0-only gauge = %d, want 3", got)
	}
	if g := m.Gauges["only_rank0_depth"]; g.Agg != "max" {
		t.Fatalf("rank-0-only gauge kept agg %q, want max", g.Agg)
	}
	if got := m.Gauge("only_rank1_free"); got != 2 {
		t.Fatalf("rank-1-only gauge = %d, want 2", got)
	}
	if h := m.Hist("only_rank0_bytes"); h.Count != 1 || h.Sum != 64 {
		t.Fatalf("rank-0-only hist = %+v", h)
	}
	if h := m.Hist("only_rank1_bytes"); h.Count != 1 || h.Sum != 128 {
		t.Fatalf("rank-1-only hist = %+v", h)
	}
	// No series leaked into a name it was never registered under.
	if _, ok := m.Counters["only_rank0_bytes"]; ok {
		t.Fatal("histogram leaked into the counter map")
	}
}
