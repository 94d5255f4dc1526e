package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewEnabled(0)
	c := reg.Counter("test_total")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := reg.Snapshot().Counter("test_total"); got != goroutines*per {
		t.Fatalf("snapshot counter = %d, want %d", got, goroutines*per)
	}
}

func TestCounterSharedByName(t *testing.T) {
	reg := NewEnabled(0)
	a := reg.Counter("same")
	b := reg.Counter("same")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewEnabled(0)
	h := reg.Histogram("sizes")
	for _, v := range []int64{0, 1, 2, 3, 4, 64, 65, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if h.Sum() != 0+1+2+3+4+64+65+1<<20 {
		t.Fatalf("sum = %d", h.Sum())
	}
	hs := reg.Snapshot().Hist("sizes")
	wantBuckets := map[int]int64{
		0:  1, // 0
		1:  1, // 1
		2:  2, // 2, 3
		3:  1, // 4
		7:  2, // 64, 65
		21: 1, // 1<<20
	}
	for i, n := range hs.Buckets {
		if n != wantBuckets[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, wantBuckets[i])
		}
	}
	if q := hs.Quantile(0.99); q < 1<<20 {
		t.Fatalf("p99 = %d, want ≥ 1<<20", q)
	}
}

func TestDisabledAndNilAreNoops(t *testing.T) {
	reg := NewDisabled(3)
	if reg.Enabled() {
		t.Fatal("NewDisabled returned a live registry")
	}
	c := reg.Counter("x")
	c.Add(5) // nil counter: must not panic
	h := reg.Histogram("y")
	h.Observe(7)
	reg.CounterFunc("z", func() int64 { return 1 })
	reg.GaugeFunc("g", AggSum, func() int64 { return 1 })
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Hists) != 0 {
		t.Fatalf("disabled snapshot not empty: %+v", s)
	}
	if s.Rank != 3 {
		t.Fatalf("rank = %d, want 3", s.Rank)
	}
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Histogram("y").Observe(1)
	if nilReg.Snapshot().Counter("x") != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestCounterFuncAndGaugeAggregation(t *testing.T) {
	reg := NewEnabled(0)
	reg.CounterFunc("dual_total", func() int64 { return 10 })
	reg.CounterFunc("dual_total", func() int64 { return 32 })
	reg.GaugeFunc("depth", AggSum, func() int64 { return 4 })
	reg.GaugeFunc("depth", AggSum, func() int64 { return 6 })
	reg.GaugeFunc("rtt", AggMax, func() int64 { return 100 })
	reg.GaugeFunc("rtt", AggMax, func() int64 { return 250 })
	s := reg.Snapshot()
	if s.Counter("dual_total") != 42 {
		t.Fatalf("counter funcs should sum, got %d", s.Counter("dual_total"))
	}
	if s.Gauge("depth") != 10 {
		t.Fatalf("sum gauge = %d, want 10", s.Gauge("depth"))
	}
	if s.Gauge("rtt") != 250 {
		t.Fatalf("max gauge = %d, want 250", s.Gauge("rtt"))
	}
}

func TestMerge(t *testing.T) {
	mk := func(rank int, frames int64, depth, rtt int64, sizes ...int64) *Snapshot {
		reg := NewEnabled(rank)
		reg.CounterFunc("frames_total", func() int64 { return frames })
		reg.GaugeFunc("depth", AggSum, func() int64 { return depth })
		reg.GaugeFunc("rtt", AggMax, func() int64 { return rtt })
		h := reg.Histogram("sizes")
		for _, v := range sizes {
			h.Observe(v)
		}
		return reg.Snapshot()
	}
	m := Merge(mk(0, 100, 5, 30, 64), mk(1, 50, 7, 90, 64, 128), nil)
	if m.Ranks != 2 || m.Rank != 0 {
		t.Fatalf("ranks = %d/%d, want 2 merged, lowest rank 0", m.Ranks, m.Rank)
	}
	if m.Counter("frames_total") != 150 {
		t.Fatalf("merged counter = %d", m.Counter("frames_total"))
	}
	if m.Gauge("depth") != 12 {
		t.Fatalf("merged sum gauge = %d", m.Gauge("depth"))
	}
	if m.Gauge("rtt") != 90 {
		t.Fatalf("merged max gauge = %d", m.Gauge("rtt"))
	}
	h := m.Hist("sizes")
	if h.Count != 3 || h.Sum != 64+64+128 {
		t.Fatalf("merged hist = %+v", h)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewEnabled(2)
	reg.Counter(`lci_core_rx_packets_total{proto="egr"}`).Add(9)
	reg.Histogram("sizes").Observe(64)
	reg.GaugeFunc("pool_free", AggSum, func() int64 { return 17 })
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter(`lci_core_rx_packets_total{proto="egr"}`) != 9 {
		t.Fatalf("round trip lost counter: %s", data)
	}
	if back.Gauge("pool_free") != 17 || back.Hist("sizes").Count != 1 {
		t.Fatalf("round trip lost gauge/hist: %s", data)
	}
}

func TestPrometheusFormat(t *testing.T) {
	reg := NewEnabled(0)
	reg.Counter(`rx_total{proto="egr"}`).Add(3)
	reg.Counter(`rx_total{proto="rts"}`).Add(1)
	reg.GaugeFunc("pool_free", AggSum, func() int64 { return 12 })
	reg.Histogram(`msg_bytes{layer="lci"}`).Observe(64)
	out := reg.Snapshot().Prometheus()

	for _, want := range []string{
		"# TYPE rx_total counter\n",
		`rx_total{proto="egr"} 3` + "\n",
		`rx_total{proto="rts"} 1` + "\n",
		"# TYPE pool_free gauge\npool_free 12\n",
		"# TYPE msg_bytes histogram\n",
		`msg_bytes_bucket{layer="lci",le="127"} 1` + "\n",
		`msg_bytes_bucket{layer="lci",le="+Inf"} 1` + "\n",
		`msg_bytes_sum{layer="lci"} 64` + "\n",
		`msg_bytes_count{layer="lci"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE rx_total") != 1 {
		t.Fatalf("family header should appear once:\n%s", out)
	}
}

func TestReportMentionsEverything(t *testing.T) {
	reg := NewEnabled(0)
	reg.Counter("a_total").Add(1)
	reg.GaugeFunc("g", AggMax, func() int64 { return 5 })
	reg.Histogram("h").Observe(100)
	rep := reg.Snapshot().Report()
	for _, want := range []string{"a_total", "g", "h", "n=1"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestCounterAddDoesNotAllocate guards the hot path: a counter add or a
// histogram observe must not allocate (the stack-address shard trick must
// not force the probe byte to escape).
func TestCounterAddDoesNotAllocate(t *testing.T) {
	reg := NewEnabled(0)
	c := reg.Counter("x")
	h := reg.Histogram("y")
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(64) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f times per op", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewEnabled(0).Counter("bench_total")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterAddDisabled(b *testing.B) {
	c := NewDisabled(0).Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewEnabled(0).Histogram("bench_bytes")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(64)
		}
	})
}
