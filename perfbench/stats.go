package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"lcigraph/internal/telemetry"
)

// failedLatency is the latency a failed op contributes: it misses every
// latency limit, so it sorts above every real sample.
const failedLatency = time.Duration(math.MaxInt64)

// tailLadder lists the percentiles op_tail_us may report, highest first:
// the usual decades. Between two rungs the chosen percentile keeps more
// than ten samples beyond it (p99 of 3600 ops has 35), which keeps the
// tail estimate steady; a finer ladder would always sit at about ten.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it among n samples (50 when n is too small for any).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(p, n)-1 >= 10 {
			return p
		}
	}
	return 50
}

// rankOf is the 0-based index of percentile p in n sorted samples (nearest
// rank).
func rankOf(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from moving the rank up by one.
	i := int(math.Ceil(p/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// percentile returns percentile p of the samples (sorted in place).
func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[rankOf(p, len(lat))]
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// delta is the change of a merged telemetry snapshot over one or more
// windows: counters and histograms hold what the windows added, gauges the
// value at the end of the last window.
type delta struct{ s *telemetry.Snapshot }

// diff returns b − a for counters and histograms, b for gauges.
func diff(a, b *telemetry.Snapshot) delta {
	d := &telemetry.Snapshot{Rank: b.Rank, Ranks: b.Ranks, Counters: map[string]int64{},
		Gauges: b.Gauges, Hists: map[string]telemetry.HistSnap{}}
	for name, v := range b.Counters {
		d.Counters[name] = v - a.Counters[name]
	}
	for name, h := range b.Hists {
		h0 := a.Hists[name]
		dh := telemetry.HistSnap{Count: h.Count - h0.Count, Sum: h.Sum - h0.Sum,
			Buckets: make([]int64, len(h.Buckets))}
		for i, n := range h.Buckets {
			if i < len(h0.Buckets) {
				n -= h0.Buckets[i]
			}
			dh.Buckets[i] = n
		}
		d.Hists[name] = dh
	}
	return delta{d}
}

// add folds another window's delta in (gauges keep the larger value).
func (d delta) add(o delta) delta {
	if d.s == nil {
		return o
	}
	return delta{telemetry.Merge(d.s, o.s)}
}

func (d delta) counter(name string) float64 { return float64(d.s.Counter(name)) }

// counterPrefix sums every counter whose name starts with prefix (all label
// sets of one metric).
func (d delta) counterPrefix(prefix string) float64 {
	var v int64
	for name, c := range d.s.Counters {
		if strings.HasPrefix(name, prefix) {
			v += c
		}
	}
	return float64(v)
}

// hist merges every histogram whose name starts with prefix.
func (d delta) hist(prefix string) telemetry.HistSnap {
	out := telemetry.HistSnap{Buckets: make([]int64, telemetry.NumBuckets)}
	for name, h := range d.s.Hists {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for i, n := range h.Buckets {
			if i < len(out.Buckets) {
				out.Buckets[i] += n
			}
		}
	}
	return out
}

// gaugeMax returns the largest value of every gauge whose name starts with
// prefix.
func (d delta) gaugeMax(prefix string) float64 {
	var v int64
	for name, g := range d.s.Gauges {
		if strings.HasPrefix(name, prefix) && g.Value > v {
			v = g.Value
		}
	}
	return float64(v)
}

// ---- environment fingerprint ----

// fingerprint identifies the code and machine a run measured.
type fingerprint struct {
	Commit     string
	SourceHash string
	GoVersion  string
	Kernel     string
	GOMAXPROCS int
	NumCPU     int
}

func takeFingerprint() fingerprint {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fingerprint{
		Commit:     commit,
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// sourceHash digests every .go file and go.mod under root (build output
// excluded), so runs of a checkout that is not a git repository still name
// the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuProbe is one CPU-availability sample: GOMAXPROCS goroutines spin on a
// fixed arithmetic loop for probeFor; avail is the process CPU time they got
// divided by wall time × GOMAXPROCS (1.0 = every core was ours), and rate
// the loop iterations per microsecond per goroutine (the calibration: a
// slower clock or a shared core lowers it).
type cpuProbe struct {
	Avail float64
	Rate  float64
}

const probeFor = 100 * time.Millisecond

func probeCPU() cpuProbe {
	n := runtime.GOMAXPROCS(0)
	cpu0 := cpuTime()
	begin := time.Now()
	var wg sync.WaitGroup
	iters := make([]int64, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(g + 1)
			var k int64
			for time.Since(begin) < probeFor {
				for i := 0; i < 4096; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				k += 4096
			}
			if x == 0 { // keep x live
				k++
			}
			iters[g] = k
		}(g)
	}
	wg.Wait()
	wall := time.Since(begin)
	var total int64
	for _, k := range iters {
		total += k
	}
	return cpuProbe{
		Avail: float64(cpuTime()-cpu0) / (float64(wall) * float64(n)),
		Rate:  float64(total) / float64(n) / us(wall),
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
