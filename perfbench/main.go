// Command perfbench is the repository's benchmark. One invocation runs one
// workload and prints its metrics as the last line of standard output:
//
//	perfbench --workload pagerank-udp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it runs the workload untraced and then traced through wrappers
// around the layer, stream and provider it hands the program, and reports
// the per-layer metrics. README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"lcigraph/internal/telemetry"
)

// segments is how many times a pass sets the workload up, runs an equal
// share of its ops and tears it down. setup_s is the median over them.
// Fresh ranks per segment average over goroutine placement and over
// seconds-long dips in CPU availability, which otherwise move a whole
// run's figures together.
const segments = 5

// workload is one benchmark input.
type workload struct {
	name string
	// rate is the nominal ops per second: a run of S seconds measures
	// round(rate × S / segments) × segments ops, the same count on every
	// run of that length.
	rate float64
	warm int // ops each segment runs before its window opens, not measured
	udp  bool
	// procs, when set, is the GOMAXPROCS the workload runs with.
	procs int
	// cycle sets the workload up, runs c.warm + c.ops ops and tears it
	// down.
	cycle func(c cycleCfg) (cycleResult, error)
	// oracle precomputes what the ops are checked against (outside every
	// timed region).
	oracle func(seed int64) any
}

var workloads = []workload{
	{name: "pagerank-udp", rate: 30, warm: 4, udp: true, cycle: runPagerank, oracle: pagerankOracle},
	{name: "bfs-gemini-sim", rate: 180, warm: 20, cycle: runBFS, oracle: bfsOracleFor},
	// query-udp runs on one P. With two, the serving path's idle 20 µs
	// sleeps sometimes woke at once and sometimes about a millisecond late,
	// and the mix changed from run to run: three 10-seed sets had p50
	// spreads of 0.2–0.25 and tail spreads of 0.24–0.31. On one P the same
	// seeds gave a p50 spread near 0.06 at about twice the latency.
	{name: "query-udp", rate: queryQPS, warm: queryQPS / 2, udp: true, procs: 1, cycle: runQuery, oracle: queryOracle},
}

// cycleCfg is one segment: set up, run, tear down.
type cycleCfg struct {
	seed    int64
	segment int // index among the pass's segments
	ops     int
	warm    int
	tr      *tracer // nil: untraced, nothing wrapped
	oracle  any
}

// setupTimes splits one cycle's set-up time.
type setupTimes struct {
	gen, part, ready, total time.Duration
}

type cycleResult struct {
	setup setupTimes
	win   *window
}

// window is what the measured part of one or more segments observed.
type window struct {
	lat    []time.Duration // per attempted op; failedLatency for failures
	failed int
	errs   []string // first few failure reasons
	done   int      // completed ops (answered, for the open loop)
	wall   time.Duration
	// busy, for the closed loops, is the summed op time: their throughput
	// excludes the barriers and oracle checks between ops.
	busy time.Duration

	cpu      time.Duration // process CPU time
	procs    int           // GOMAXPROCS while measuring
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	tel      delta
	rounds   int             // BSP rounds summed over ops (rank 0)
	late     []time.Duration // open loop: how late each query was sent
}

func (w *window) ok(d time.Duration) {
	w.lat = append(w.lat, d)
	w.done++
}

func (w *window) fail(d time.Duration, err error) {
	w.lat = append(w.lat, failedLatency)
	w.failed++
	if d > 0 {
		w.done++
	}
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// cpuUse is the process CPU time in the window divided by wall time ×
// GOMAXPROCS. Each workload keeps it near a level of its own on an idle
// machine; a value at or below 1/GOMAXPROCS means the process got at most
// one core's worth.
func (w *window) cpuUse() float64 {
	return ratio(float64(w.cpu), float64(w.wall)*float64(w.procs))
}

// add folds segment o into w.
func (w *window) add(o *window) {
	w.lat = append(w.lat, o.lat...)
	w.failed += o.failed
	for _, e := range o.errs {
		if len(w.errs) < 5 {
			w.errs = append(w.errs, e)
		}
	}
	w.done += o.done
	w.wall += o.wall
	w.busy += o.busy
	w.cpu += o.cpu
	w.procs = o.procs
	w.alloc += o.alloc
	w.gcCycles += o.gcCycles
	w.gcPause += o.gcPause
	w.tel = w.tel.add(o.tel)
	w.rounds += o.rounds
	w.late = append(w.late, o.late...)
}

// meter brackets a window: heap, GC and telemetry state at both ends.
type meter struct {
	regs  []*telemetry.Registry
	ms    runtime.MemStats
	snap  *telemetry.Snapshot
	cpu   time.Duration
	begin time.Time
}

func (m *meter) start() {
	m.snap = mergedSnapshot(m.regs)
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuTime()
	m.begin = time.Now()
}

func (m *meter) stop(w *window) {
	w.wall = time.Since(m.begin)
	w.cpu = cpuTime() - m.cpu
	w.procs = runtime.GOMAXPROCS(0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc = ms.TotalAlloc - m.ms.TotalAlloc
	w.gcCycles = ms.NumGC - m.ms.NumGC
	w.gcPause = time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
	w.tel = diff(m.snap, mergedSnapshot(m.regs))
}

func mergedSnapshot(regs []*telemetry.Registry) *telemetry.Snapshot {
	snaps := make([]*telemetry.Snapshot, len(regs))
	for i, r := range regs {
		snaps[i] = r.Snapshot()
	}
	return telemetry.Merge(snaps...)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pagerank-udp | bfs-gemini-sim | query-udp, or all (one after another)")
	seed := flag.Int64("seed", 1, "input seed (graph, sources, query stream)")
	seconds := flag.Int("seconds", 20, "nominal measured seconds; fixes the op count")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from an untraced and a traced pass")
	flag.Parse()

	var chosen []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			chosen = append(chosen, &workloads[i])
		}
	}
	if len(chosen) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload pagerank-udp|bfs-gemini-sim|query-udp|all, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	correct := true
	for _, wl := range chosen {
		out, err := run(wl, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		b, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		correct = correct && out.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

// passResult is one pass: every segment's window, their merge, and the
// segments' set-up times.
type passResult struct {
	all    *window
	segs   []*window
	setups []setupTimes
}

// pass runs every segment of one pass, each measuring perSeg ops.
func pass(wl *workload, seed int64, perSeg int, tr *tracer, ref any) (*passResult, error) {
	p := &passResult{all: &window{}}
	for i := 0; i < segments; i++ {
		r, err := wl.cycle(cycleCfg{seed: seed, segment: i, ops: perSeg, warm: wl.warm, tr: tr, oracle: ref})
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, r.setup)
		p.segs = append(p.segs, r.win)
		p.all.add(r.win)
	}
	return p, nil
}

// run executes one benchmark invocation.
func run(wl *workload, seed int64, seconds int, traced bool) (*output, error) {
	fp := takeFingerprint()
	before := probeCPU()
	fmt.Printf("env: commit=%s source=%s go=%s kernel=%s GOMAXPROCS=%d nproc=%d cpu_before=%.3f (%.1f it/us)\n",
		fp.Commit, fp.SourceHash, fp.GoVersion, fp.Kernel, fp.GOMAXPROCS, fp.NumCPU, before.Avail, before.Rate)

	perSeg := max(1, int(wl.rate*float64(seconds)/segments+0.5))
	ref := wl.oracle(seed)
	if wl.procs > 0 {
		fmt.Printf("env: %s runs with GOMAXPROCS=%d\n", wl.name, wl.procs)
		runtime.GOMAXPROCS(wl.procs)
	}
	plain, err := pass(wl, seed, perSeg, nil, ref)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var tracedWin *window
	if traced {
		tr = newTracer(ranks)
		p, err := pass(wl, seed, perSeg, tr, ref)
		if err != nil {
			return nil, err
		}
		tracedWin = p.all
	}
	runtime.GOMAXPROCS(fp.GOMAXPROCS)
	after := probeCPU()
	fmt.Printf("env: cpu_after=%.3f (%.1f it/us)\n", after.Avail, after.Rate)

	out := &output{}
	for _, w := range []*window{plain.all, tracedWin} {
		if w == nil {
			continue
		}
		out.Attempted += len(w.lat)
		out.Failed += w.failed
		for _, e := range w.errs {
			fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0

	if !traced {
		out.Metrics = endToEnd(plain)
		printE2E(wl.name, plain, out.Metrics)
		return out, nil
	}
	out.Metrics = perLayer(wl, plain, tracedWin, tr, before, after)
	printLayers(wl.name, out.Metrics)
	if err := writeChrome(".bench_build/perfbench/trace-"+wl.name+".json", tr.snapshot(), tr.keepTill.Load()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace file:", err)
	}
	return out, nil
}

// endToEnd computes the six user-visible metrics of an untraced pass.
// Each timing, rate and allocation figure is the median over the pass's
// segments of that segment's value, so a dip in CPU availability that
// spans fewer than half the segments does not move it; ok_frac counts
// every op.
func endToEnd(p *passResult) map[string]metric {
	var p50, tail, rate, alloc []float64
	for _, w := range p.segs {
		n := len(w.lat)
		lat := append([]time.Duration(nil), w.lat...)
		elapsed := w.wall
		if w.busy > 0 {
			elapsed = w.busy
		}
		p50 = append(p50, us(percentile(lat, 50)))
		tail = append(tail, us(percentile(lat, tailPercentile(n))))
		rate = append(rate, float64(w.done)/elapsed.Seconds())
		alloc = append(alloc, float64(w.alloc)/float64(n)/1024)
	}
	all := p.all
	return map[string]metric{
		"op_p50_us":       {median(p50), "us"},
		"op_tail_us":      {median(tail), "us"},
		"ops_per_s":       {median(rate), "1/s"},
		"ok_frac":         {float64(len(all.lat)-all.failed) / float64(len(all.lat)), "frac"},
		"alloc_kb_per_op": {median(alloc), "KiB"},
		"setup_s":         {medianSetup(p.setups, func(s setupTimes) time.Duration { return s.total }), "s"},
	}
}

func median(v []float64) float64 {
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func medianSetup(ss []setupTimes, f func(setupTimes) time.Duration) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s).Seconds()
	}
	return median(v)
}

func printE2E(name string, p *passResult, m map[string]metric) {
	n := len(p.segs[0].lat)
	pct := tailPercentile(n)
	fmt.Printf("%s: %d ops in %d segments, %d failed; op_tail_us is p%g of each segment's %d ops (%d samples beyond it); process CPU use in the windows %.3f of its GOMAXPROCS\n",
		name, len(p.all.lat), len(p.segs), p.all.failed, pct, n, n-rankOf(pct, n)-1, p.all.cpuUse())
	fmt.Printf("  segment p50 (us) / process CPU use:")
	for _, w := range p.segs {
		fmt.Printf("  %.0f/%.2f", us(percentile(append([]time.Duration(nil), w.lat...), 50)), w.cpuUse())
	}
	fmt.Println()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-16s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
