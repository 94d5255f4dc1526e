package netfabric

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lcigraph/internal/fabric"
)

// trainSizes summarizes a plan as (datagrams, seg) pairs for comparison.
func trainSizes(trains []gsoTrain) [][2]int {
	out := make([][2]int, len(trains))
	for i, tr := range trains {
		out[i] = [2]int{tr.n, tr.seg}
	}
	return out
}

func mkPkts(sizes ...int) [][]byte {
	pkts := make([][]byte, len(sizes))
	for i, n := range sizes {
		pkts[i] = make([]byte, n)
	}
	return pkts
}

func TestPlanTrains(t *testing.T) {
	sameDst := func(n int) []int { return make([]int, n) }
	cases := []struct {
		name string
		pkts [][]byte
		dsts []int
		want [][2]int // (n, seg) per train
	}{
		{"empty", nil, nil, [][2]int{}},
		{"single packet is plain", mkPkts(1400), sameDst(1), [][2]int{{1, 0}}},
		{"uniform run coalesces", mkPkts(1400, 1400, 1400), sameDst(3), [][2]int{{3, 1400}}},
		{"shorter tail joins and closes", mkPkts(1400, 1400, 100), sameDst(3), [][2]int{{3, 1400}}},
		{"packet after short tail starts new train",
			mkPkts(1400, 100, 1400, 1400), sameDst(4), [][2]int{{2, 1400}, {2, 1400}}},
		{"larger packet breaks the train",
			mkPkts(100, 1400), sameDst(2), [][2]int{{1, 0}, {1, 0}}},
		{"destination change splits",
			mkPkts(1400, 1400, 1400), []int{1, 1, 2}, [][2]int{{2, 1400}, {1, 0}}},
		{"interleaved destinations never merge",
			mkPkts(1400, 1400, 1400, 1400), []int{1, 2, 1, 2},
			[][2]int{{1, 0}, {1, 0}, {1, 0}, {1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := trainSizes(planTrains(nil, tc.pkts, tc.dsts))
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("train %d: got %v, want %v", i, got, tc.want)
				}
			}
		})
	}
}

// TestPlanTrainsCaps: the kernel caps a train at maxGSOSegs datagrams and
// maxGSOBytes total; plans must split exactly there and never copy payload
// (every train packet aliases the input slice).
func TestPlanTrainsCaps(t *testing.T) {
	uniform := func(n, size int) [][]byte {
		pkts := make([][]byte, n)
		for i := range pkts {
			pkts[i] = make([]byte, size)
		}
		return pkts
	}

	pkts := uniform(maxGSOSegs+10, 100)
	trains := planTrains(nil, pkts, make([]int, len(pkts)))
	if len(trains) != 2 || trains[0].n != maxGSOSegs || trains[1].n != 10 {
		t.Fatalf("segment cap: got %v", trainSizes(trains))
	}
	if &trains[0].pkts[0][0] != &pkts[0][0] {
		t.Fatal("train does not alias input packets")
	}

	// One more MTU-sized datagram than fits in maxGSOBytes must split.
	n := maxGSOBytes/1400 + 1
	trains = planTrains(nil, uniform(n, 1400), make([]int, n))
	if len(trains) != 2 || trains[0].n != maxGSOBytes/1400 {
		t.Fatalf("byte cap: got %v", trainSizes(trains))
	}
}

// exchangeLossy drives n messages of mixed sizes across a lossy pair and
// checks exactly-once in-order delivery — the acceptance gate every offload
// tier and every fallback must clear identically.
func exchangeLossy(t *testing.T, cfg Config, n int) (*Provider, *Provider) {
	t.Helper()
	cfg.RTO = time.Millisecond
	cfg.Fault = Fault{Loss: 0.05, Dup: 0.02, Reorder: 0.02, Seed: 11}
	a, b := pair(t, cfg)
	done := make(chan error, 1)
	go func() { done <- recvStride(b, 0, 1, n) }()
	if err := sendAll(a, 1, n); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return a, b
}

// TestGSOFallbackLossy: with segmentation offload disabled (the -no-gso
// path, and the shape of a kernel that rejects UDP_SEGMENT) the provider
// must fall back to plain batch I/O with identical exactly-once delivery
// under loss.
func TestGSOFallbackLossy(t *testing.T) {
	a, _ := exchangeLossy(t, Config{DisableGSO: true}, 400)
	if a.GSO() {
		t.Fatal("DisableGSO left the GSO tier on")
	}
	if st := a.Stats(); st.GSOSends != 0 {
		t.Fatalf("GSO disabled but gso_sends=%d", st.GSOSends)
	}
}

// TestGSORuntimeDowngrade: a kernel refusing UDP_SEGMENT at send time (the
// probe passed but sendmmsg errors) downgrades mid-stream; messages sent
// before and after must all arrive.
func TestGSORuntimeDowngrade(t *testing.T) {
	a, b := pair(t, Config{})
	got := make([]*fabric.Frame, 0, 40)
	keep := func(f *fabric.Frame) { got = append(got, f) }
	for i := 0; i < 20; i++ {
		sendRetry(t, a, b, 1, uint64(i), 0, pattern(i, 3000), keep)
	}
	a.gsoOn.Store(false) // what the send path does on errBatchUnsupported
	for i := 20; i < 40; i++ {
		sendRetry(t, a, b, 1, uint64(i), 0, pattern(i, 3000), keep)
	}
	for len(got) < 40 {
		keep(pollOne(t, b, 10*time.Second))
	}
	for i, f := range got {
		if f.Header != uint64(i) || !bytes.Equal(f.Data, pattern(i, 3000)) {
			t.Fatalf("msg %d: header=%d len=%d", i, f.Header, len(f.Data))
		}
		f.Release()
	}
}

// TestReaderShardsLossy: multiple SO_REUSEPORT reader shards must preserve
// exactly-once in-order delivery even though the kernel may migrate a flow
// between shards, and every configured shard must actually exist.
func TestReaderShardsLossy(t *testing.T) {
	a, _ := exchangeLossy(t, Config{ReaderShards: 4}, 400)
	if offloadAvailable {
		if got := a.ReaderShards(); got != 4 {
			t.Fatalf("ReaderShards() = %d, want 4", got)
		}
	}
	rx := a.ShardRx()
	var total int64
	for _, n := range rx {
		total += n
	}
	if total == 0 {
		t.Fatalf("no shard counted any datagrams: %v", rx)
	}
}

// TestGSOLargeMessages exercises the tier the offload exists for: large
// fragment trains. When the kernel granted GSO/GRO the counters must move.
func TestGSOLargeMessages(t *testing.T) {
	a, b := pair(t, Config{EagerLimit: 64 << 10})
	const n, size = 8, 60000
	got := make([]*fabric.Frame, 0, n)
	keep := func(f *fabric.Frame) { got = append(got, f) }
	for i := 0; i < n; i++ {
		sendRetry(t, a, b, 1, uint64(i), 0, pattern(i, size), keep)
	}
	for len(got) < n {
		keep(pollOne(t, b, 10*time.Second))
	}
	for i, f := range got {
		if f.Header != uint64(i) || !bytes.Equal(f.Data, pattern(i, size)) {
			t.Fatalf("msg %d: header=%d len=%d", i, f.Header, len(f.Data))
		}
		f.Release()
	}
	if a.GSO() {
		if st := a.Stats(); st.GSOSends == 0 {
			t.Fatal("GSO active but no trains counted")
		}
	}
	if b.GRO() {
		if st := b.Stats(); st.GROCoalesced == 0 {
			t.Skip("GRO active but kernel delivered no coalesced buffers (timing-dependent)")
		}
	}
	t.Logf("a: %s stats=%+v", a.Capabilities(), a.Stats())
}

// TestPortableTierFields: the launcher's -no-batch-io, -no-gso and
// -reader-shards reach the provider as Config fields, by value.
func TestPortableTierFields(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cfg          Config
		batchIO, gso bool // false: must be off; true: may be on
		readerShards int
		caps         []string // substrings of Capabilities
	}{
		{"no-gso one reader", Config{DisableGSO: true, ReaderShards: 1}, true, false, 1,
			[]string{"gso=false", "shards=1 "}},
		{"no-batch-io", Config{DisableBatchIO: true, ReaderShards: 1}, false, false, 1,
			[]string{"batchio=false", "gso=false"}},
		{"readers raised to endpoint shards", Config{ReaderShards: 1, EndpointShards: 2}, true, true, 2,
			[]string{"epshards=2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Addrs = []string{"127.0.0.1:0"}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if !tc.batchIO && p.BatchIO() {
				t.Error("batch I/O left on")
			}
			if !tc.gso && p.GSO() {
				t.Error("GSO left on")
			}
			if got := p.ReaderShards(); got != tc.readerShards {
				t.Errorf("%d reader shards, want %d", got, tc.readerShards)
			}
			caps := p.Capabilities()
			for _, sub := range tc.caps {
				if !strings.Contains(caps, sub) {
					t.Errorf("capabilities %q lack %q", caps, sub)
				}
			}
		})
	}
}
