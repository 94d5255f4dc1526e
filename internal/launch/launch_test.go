package launch

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	lci "lcigraph/internal/core"
)

// TestMain re-enters as a launched rank when the handoff environment is
// present: Job.Start re-executes the test binary, and the rank reports what
// it received instead of running tests.
func TestMain(m *testing.M) {
	if InChild() {
		os.Exit(reportChild())
	}
	os.Exit(m.Run())
}

// childReport is what one launched rank saw of the handoff and its flags.
type childReport struct {
	Rank, Size     int
	Addrs          []string
	Conn           string // local address of the inherited UDP socket
	Metrics        bool   // a metrics listener was inherited
	MetricsAddrs   []string
	Extra          string // rank 0: address of the listener at fd 5
	Loss           float64
	FaultSeed      int64
	EndpointShards int
	ReaderShards   int
	NoBatchIO      bool
	NoGSO          bool
	Trace          bool
	OpsLog         string
	Stall          *lci.StallSpec // the injection this rank arms
}

func reportChild() int {
	cfg := DefaultConfig("launch-test")
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	fs.BoolVar(&cfg.Trace, "trace", false, "the command's own tracing flag")
	dir := fs.String("report-dir", "", "where each rank writes its report")
	err := cfg.Parse(fs, os.Args[1:])
	var h *handoff
	if err == nil {
		h, err = readHandoff()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "launch test child:", err)
		return 2
	}
	fc := cfg.fabricConfig(h, nil)
	rep := childReport{
		Rank: h.rank, Size: len(h.addrs), Addrs: h.addrs,
		Conn:    h.conn.LocalAddr().String(),
		Metrics: h.metrics != nil, MetricsAddrs: h.metricsAddrs,
		Loss: fc.Fault.Loss, FaultSeed: fc.Fault.Seed, EndpointShards: fc.EndpointShards,
		ReaderShards: fc.ReaderShards, NoBatchIO: fc.DisableBatchIO, NoGSO: fc.DisableGSO,
		Trace:  cfg.Trace,
		OpsLog: cfg.opsLog(h.rank),
		Stall:  cfg.stallFor(h.rank),
	}
	if h.rank == 0 {
		ln, err := ExtraListener(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "launch test child: extra listener:", err)
			return 2
		}
		rep.Extra = ln.Addr().String()
		ln.Close()
	}
	data, _ := json.Marshal(rep)
	if err := os.WriteFile(filepath.Join(*dir, fmt.Sprintf("rank%d.json", h.rank)), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "launch test child:", err)
		return 2
	}
	return 0
}

// TestJobHandoff starts 2-rank jobs of this test binary and checks that
// each rank receives exactly its share: identity and addresses, the metrics
// listener only when bound, rank 0's extra listener at its fixed fd with and
// without metrics, the fault, shard and portable-tier flags in its fabric
// config, the command's tracing flag, the ops log on rank 0 only and the
// stall injection on the targeted rank only — all from its own argv.
func TestJobHandoff(t *testing.T) {
	for _, tc := range []struct {
		name    string
		metrics bool
		args    []string
		want    childReport    // the flag-derived fields of rank 0's report
		stall   *lci.StallSpec // the injection rank 1 arms
	}{
		{
			name:    "metrics",
			metrics: true,
			args: []string{"-loss", "0.05", "-fault-seed", "7", "-shards", "2",
				"-no-batch-io", "-no-gso", "-reader-shards", "3", "-trace",
				"-ops-log", "ops.jsonl", "-inject-stall", "1:0:1s:2s"},
			want: childReport{Loss: 0.05, FaultSeed: 7, EndpointShards: 2,
				ReaderShards: 3, NoBatchIO: true, NoGSO: true, Trace: true, OpsLog: "ops.jsonl"},
			stall: &lci.StallSpec{Shard: 0, After: time.Second, Dur: 2 * time.Second},
		},
		{
			name: "plain",
			want: childReport{EndpointShards: 1},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DefaultConfig("launch-test")
			cfg.N = 2
			args := append([]string{"-report-dir", dir}, tc.args...)
			fs := flag.NewFlagSet("parent", flag.ContinueOnError)
			cfg.RegisterFlags(fs)
			fs.Bool("trace", false, "")
			fs.String("report-dir", "", "")
			if err := cfg.Parse(fs, args); err != nil {
				t.Fatal(err)
			}
			j, err := NewJob(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.metrics {
				if err := j.BindMetrics("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
			}
			udpAddrs := append([]string(nil), j.udpAddrs...)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			extraAddr := ln.Addr().String()
			ef, err := ln.(*net.TCPListener).File()
			ln.Close()
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Start(args, map[int][]*os.File{0: {ef}}); err != nil {
				t.Fatal(err)
			}
			if code := j.Wait(); code != 0 {
				t.Fatalf("ranks exited %d", code)
			}
			for rank := 0; rank < 2; rank++ {
				data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("rank%d.json", rank)))
				if err != nil {
					t.Fatal(err)
				}
				var got childReport
				if err := json.Unmarshal(data, &got); err != nil {
					t.Fatal(err)
				}
				want := tc.want
				want.Rank, want.Size, want.Addrs, want.Conn = rank, 2, udpAddrs, udpAddrs[rank]
				want.Metrics, want.MetricsAddrs = tc.metrics, j.MetricsAddrs
				if rank == 0 {
					want.Extra = extraAddr
				} else {
					want.OpsLog, want.Stall = "", tc.stall
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d got\n%+v\nwant\n%+v", rank, got, want)
				}
			}
		})
	}
}

// TestConfigParse: the parent rejects bad shared settings at parse, before
// any rank starts, and RegisterFlags keeps the caller's defaults.
func TestConfigParse(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // substring; "" = accepted
	}{
		{nil, ""},
		{[]string{"-loss", "0.05", "-dup", "0.02", "-reorder", "0.02",
			"-inject-stall", "1:1:6s:8s", "-profile-period", "5s"}, ""},
		{[]string{"-inject-stall", "1:x"}, "-inject-stall"},
		{[]string{"-inject-stall", "1"}, "-inject-stall"},
		{[]string{"-inject-stall", "-1:0:1s:1s"}, "-inject-stall"},
		{[]string{"-inject-stall", "0:0:1s:0s"}, "-inject-stall"},
		{[]string{"-loss", "1"}, "-loss"},
		{[]string{"-dup", "1.5"}, "-dup"},
		{[]string{"-reorder", "-0.1"}, "-reorder"},
		{[]string{"-loss", "NaN"}, "-loss"},
		{[]string{"-profile-period", "abc"}, "profile-period"},
		{[]string{"-shards", "16", "-reader-shards", "1", "-no-batch-io", "-no-gso"}, ""},
		{[]string{"-reader-shards", "16"}, ""},
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-shards", "17"}, "-shards"},
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-reader-shards", "0"}, "-reader-shards"},
		{[]string{"-reader-shards", "17"}, "-reader-shards"},
		{[]string{"-reader-shards", "abc"}, "-reader-shards"},
	} {
		cfg := DefaultConfig("launch-test")
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg.RegisterFlags(fs)
		err := cfg.Parse(fs, tc.args)
		if tc.wantErr == "" && err != nil {
			t.Errorf("%q: unexpected error %v", tc.args, err)
		}
		if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.wantErr)
		}
	}
	cfg := DefaultConfig("launch-test")
	cfg.Scale = 12
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg.RegisterFlags(fs)
	if err := cfg.Parse(fs, nil); err != nil || cfg.Scale != 12 || cfg.N != 4 || cfg.Shards != 1 ||
		cfg.ReaderShards != 0 || cfg.ProfilePeriod != time.Minute {
		t.Fatalf("defaults lost: %v, %+v", err, cfg)
	}
}
