// Package bench is the experiment harness: it assembles graph, partition,
// fabric, communication layer and framework into one run, and provides the
// sweep drivers that regenerate every table and figure of the paper
// (DESIGN.md §4).
package bench

import (
	"fmt"
	"math"
	"time"

	"lcigraph/internal/abelian"
	"lcigraph/internal/apps"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/gemini"
	"lcigraph/internal/graph"
	"lcigraph/internal/memtrack"
	"lcigraph/internal/mpi"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/trace"
)

// Layer kinds.
const (
	LCI      = "lci"
	MPIProbe = "mpi-probe"
	MPIRMA   = "mpi-rma"
)

// Layers lists the Abelian layer kinds in paper order.
func Layers() []string { return []string{LCI, MPIProbe, MPIRMA} }

// StreamKinds lists the Gemini backends (Fig. 4 compares these two).
func StreamKinds() []string { return []string{LCI, MPIProbe} }

// Apps lists the benchmark applications in paper order.
func Apps() []string { return []string{"bfs", "cc", "pagerank", "sssp"} }

// kcoreK is the fixed core parameter for the "kcore" extension app.
const kcoreK = 4

// Config describes one run.
type Config struct {
	App     string // bfs | cc | pagerank | sssp
	Layer   string // lci | mpi-probe | mpi-rma
	Hosts   int
	Threads int // compute threads per host
	Source  uint32
	PRIters int
	Profile fabric.Profile
	Impl    mpi.Impl
	// Transport selects the fabric backend: "" or "sim" is the in-process
	// simulator with Profile's characteristics; "udp" runs every host on a
	// real loopback UDP socket (internal/netfabric) in this process.
	Transport string
	// Fault injects datagram loss/duplication/reordering on the UDP
	// transport (Transport == "udp" only).
	Fault netfabric.Fault
	// NoAggregation disables the probe layer's buffered network layer
	// (ablation: the naive per-message baseline of §III-B).
	NoAggregation bool
	// Adaptive enables Gemini's sparse/dense mode switching (bfs, cc and
	// sssp on the Gemini engine only).
	Adaptive bool
	// Trace, if non-nil, collects per-round records from every host
	// (Abelian runs).
	Trace *trace.Trace
	// Shards is the progress-shard count per rank on the LCI layers
	// (≤ 1: one).
	Shards int
}

// Result is one run's measurements.
type Result struct {
	Config  Config
	Wall    time.Duration
	Compute []time.Duration // per host
	Comm    []time.Duration // per host (non-overlapped)
	MemMax  int64           // max communication-buffer footprint across hosts
	MemMin  int64
	Rounds  int
	Net     NetStats
	// Snapshot is the merged cross-host telemetry for the run; Net is
	// derived from it (NetStatsFromSnapshot), so the bench tables and the
	// launcher's -v report render from one source.
	Snapshot *telemetry.Snapshot
	Dist     []uint64  // bfs/cc/sssp results per global vertex
	Ranks    []float64 // pagerank results per global vertex
}

// NetStats aggregates the fabric's wire-level counters across all hosts —
// useful for explaining layer differences (e.g. LCI's rendezvous puts vs
// the probe layer's bundled eager frames).
type NetStats struct {
	Frames      int64 // eager frames injected
	FrameBytes  int64
	Puts        int64 // RDMA puts
	PutBytes    int64
	SendRetries int64 // back-pressure events

	// Transport counters: zero on the in-process simulator, live on the
	// UDP provider (internal/netfabric).
	Retransmits int64 // datagrams retransmitted after ack timeout
	Drops       int64 // datagrams dropped (fault injection + stale dups)
}

// NetStatsFromSnapshot derives the legacy NetStats view from a telemetry
// snapshot: the counters live under their canonical registry names
// (internal/fabric) and this is the only place that maps
// them back onto the struct the tables and reports consume.
func NetStatsFromSnapshot(s *telemetry.Snapshot) NetStats {
	return NetStats{
		Frames:      s.Counter(fabric.MetricSendFrames),
		FrameBytes:  s.Counter(fabric.MetricSendBytes),
		Puts:        s.Counter(fabric.MetricPuts),
		PutBytes:    s.Counter(fabric.MetricPutBytes),
		SendRetries: s.Counter(fabric.MetricSendRetries) + s.Counter(fabric.MetricPutRetries),
		Retransmits: s.Counter(fabric.MetricRetransmits),
		Drops:       s.Counter(fabric.MetricPacketsDropped),
	}
}

// hostRegistries builds one live registry per host and registers each host's fabric provider into its own, so in-process
// multi-host runs keep per-rank metrics separable until the final merge.
func hostRegistries(feps []fabric.Provider) []*telemetry.Registry {
	regs := make([]*telemetry.Registry, len(feps))
	for r, fep := range feps {
		regs[r] = telemetry.NewEnabled(r)
		if mr, ok := fep.(fabric.MetricsRegistrar); ok {
			mr.RegisterMetrics(regs[r])
		}
	}
	return regs
}

// mergeRegistries freezes every host registry and folds the snapshots into
// the run-wide view.
func mergeRegistries(regs []*telemetry.Registry) *telemetry.Snapshot {
	snaps := make([]*telemetry.Snapshot, len(regs))
	for i, reg := range regs {
		snaps[i] = reg.Snapshot()
	}
	return telemetry.Merge(snaps...)
}

// MaxCompute returns the largest per-host compute time.
func (r *Result) MaxCompute() time.Duration { return maxDur(r.Compute) }

// MaxComm returns the largest per-host non-overlapped communication time.
func (r *Result) MaxComm() time.Duration { return maxDur(r.Comm) }

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

func (c *Config) fill() {
	if c.Hosts <= 0 {
		c.Hosts = 4
	}
	if c.Threads <= 0 {
		c.Threads = 2
	}
	if c.PRIters <= 0 {
		c.PRIters = 10
	}
	if c.Profile.Name == "" {
		c.Profile = fabric.OmniPath()
	}
	if c.Impl.Name == "" {
		c.Impl = mpi.IntelMPI()
	}
}

// LCIOptions sizes the LCI endpoint for a P-host graph run. The SPMD
// launcher (internal/launch) uses the same sizing so multi-process runs
// match the in-process harness.
// The budgets are rank-global: with Shards = K, lci.NewSharded partitions
// them K ways.
func LCIOptions(p, threads int) lci.Options {
	return lci.Options{
		PoolPackets:    64 * p,
		QueueDepth:     1024,
		MaxOutstanding: 1024,
		Workers:        threads + 1,
	}
}

// transport builds the per-rank fabric providers for cfg: simulator
// endpoints, or real loopback UDP endpoints when cfg.Transport is "udp".
// close tears the UDP sockets down (a no-op for the simulator). Wire
// counters come out of each provider's telemetry registration, not a
// separate return value.
func transport(cfg *Config) (feps []fabric.Provider, close func()) {
	if cfg.Transport == "udp" {
		provs, err := netfabric.NewLoopbackGroup(cfg.Hosts, netfabric.Config{Fault: cfg.Fault})
		if err != nil {
			panic("bench: udp transport: " + err.Error())
		}
		feps = make([]fabric.Provider, cfg.Hosts)
		for r := range feps {
			feps[r] = provs[r]
		}
		return feps, func() { netfabric.CloseGroup(provs) }
	}
	fab := fabric.New(cfg.Hosts, cfg.Profile)
	feps = make([]fabric.Provider, cfg.Hosts)
	for r := range feps {
		feps[r] = fab.Endpoint(r)
	}
	return feps, func() {}
}

// RunAbelian executes one Abelian run (vertex-cut partition, Fig. 3
// configuration) of cfg.App over g and returns measurements plus results.
func RunAbelian(g *graph.Graph, cfg Config) *Result {
	cfg.fill()
	pt := partition.Build(g, cfg.Hosts, partition.VertexCut)
	feps, closeNet := transport(&cfg)
	defer closeNet()
	regs := hostRegistries(feps)

	var world *mpi.World
	switch cfg.Layer {
	case MPIProbe:
		world = mpi.NewWorldOver(feps, cfg.Impl, mpi.ThreadFunneled)
	case MPIRMA:
		world = mpi.NewWorldOver(feps, cfg.Impl, mpi.ThreadMultiple)
	}
	mk := func(r int) comm.Layer {
		switch cfg.Layer {
		case LCI:
			opt := LCIOptions(cfg.Hosts, cfg.Threads)
			opt.Shards = cfg.Shards
			opt.Telemetry = regs[r]
			return comm.NewLCILayer(feps[r], opt)
		case MPIProbe:
			pl := comm.NewProbeLayer(world.Comm(r))
			pl.SetTelemetry(regs[r])
			if cfg.NoAggregation {
				pl.SetAggregation(0, 0)
			}
			return pl
		case MPIRMA:
			rl := comm.NewRMALayer(world.Comm(r))
			rl.SetTelemetry(regs[r])
			return rl
		default:
			panic("bench: unknown layer " + cfg.Layer)
		}
	}

	res := &Result{
		Config:  cfg,
		Compute: make([]time.Duration, cfg.Hosts),
		Comm:    make([]time.Duration, cfg.Hosts),
	}
	if cfg.App == "pagerank" {
		res.Ranks = make([]float64, g.N)
	} else {
		res.Dist = make([]uint64, g.N)
	}
	rounds := make([]int, cfg.Hosts)
	mems := make([]int64, cfg.Hosts)
	walls := make([]time.Duration, cfg.Hosts)

	cluster.Run(cfg.Hosts, cfg.Threads, mk, func(h *cluster.Host) {
		// Exclude setup (layer construction, pool allocation) from the
		// measurement, as the paper excludes graph construction time.
		h.Barrier()
		start := time.Now()
		hg := pt.Hosts[h.Rank]
		rt := abelian.New(h, hg, partition.VertexCut)
		rt.Trace = cfg.Trace
		switch cfg.App {
		case "bfs":
			f, _ := apps.BFS(rt, cfg.Source)
			collectU64(hg, f.Get, res.Dist)
		case "bfs-dir":
			f, _, _ := apps.BFSDirectionOpt(rt, cfg.Source)
			collectU64(hg, f.Get, res.Dist)
		case "sssp":
			f, _ := apps.SSSP(rt, cfg.Source)
			collectU64(hg, f.Get, res.Dist)
		case "sssp-delta":
			f, _ := apps.SSSPDelta(rt, cfg.Source, 16)
			collectU64(hg, f.Get, res.Dist)
		case "cc":
			f, _ := apps.CC(rt)
			collectU64(hg, f.Get, res.Dist)
		case "pagerank":
			f := apps.PageRank(rt, cfg.PRIters)
			collectF64(hg, f.Get, res.Ranks)
		case "kcore":
			f, _ := apps.KCore(rt, kcoreK)
			collectU64(hg, f.Get, res.Dist)
		default:
			panic("bench: unknown app " + cfg.App)
		}
		res.Compute[h.Rank] = rt.ComputeTime
		res.Comm[h.Rank] = rt.CommTime
		rounds[h.Rank] = rt.Rounds
		h.Barrier()
		walls[h.Rank] = time.Since(start)
		mems[h.Rank] = h.Layer.Tracker().Max()
	})
	res.Wall = maxDur(walls)
	res.Rounds = rounds[0]
	res.MemMax, res.MemMin = minMax(mems)
	res.Snapshot = mergeRegistries(regs)
	res.Net = NetStatsFromSnapshot(res.Snapshot)
	return res
}

// RunGemini executes one Gemini run (destination-owned edge-cut, Fig. 4
// configuration).
func RunGemini(g *graph.Graph, cfg Config) *Result {
	cfg.fill()
	pt := partition.Build(g, cfg.Hosts, partition.EdgeCutByDst)
	feps, closeNet := transport(&cfg)
	defer closeNet()
	regs := hostRegistries(feps)

	var world *mpi.World
	if cfg.Layer == MPIProbe {
		world = mpi.NewWorldOver(feps, cfg.Impl, mpi.ThreadMultiple)
	}
	mkStream := func(r int) comm.Stream {
		switch cfg.Layer {
		case LCI:
			opt := LCIOptions(cfg.Hosts, cfg.Threads)
			opt.Shards = cfg.Shards
			opt.Telemetry = regs[r]
			return comm.NewLCIStream(feps[r], opt)
		case MPIProbe:
			ms := comm.NewMPIStream(world.Comm(r))
			ms.SetTelemetry(regs[r])
			return ms
		default:
			panic("bench: gemini supports lci and mpi-probe, got " + cfg.Layer)
		}
	}

	res := &Result{
		Config:  cfg,
		Compute: make([]time.Duration, cfg.Hosts),
		Comm:    make([]time.Duration, cfg.Hosts),
	}
	if cfg.App == "pagerank" {
		res.Ranks = make([]float64, g.N)
	} else {
		res.Dist = make([]uint64, g.N)
	}
	rounds := make([]int, cfg.Hosts)
	mems := make([]int64, cfg.Hosts)
	walls := make([]time.Duration, cfg.Hosts)

	cluster.Run(cfg.Hosts, cfg.Threads, func(r int) comm.Layer { return nopLayer{} },
		func(h *cluster.Host) {
			hg := pt.Hosts[h.Rank]
			s := mkStream(h.Rank)
			h.Barrier()
			start := time.Now()
			var e *gemini.Engine
			switch cfg.App {
			case "bfs":
				e = gemini.New(h, hg, s, apps.Inf, minU64)
				if cfg.Adaptive {
					apps.GeminiBFSAdaptive(e, cfg.Source)
				} else {
					apps.GeminiBFS(e, cfg.Source)
				}
				collectU64Masters(hg, e.Get, res.Dist)
			case "sssp":
				e = gemini.New(h, hg, s, apps.Inf, minU64)
				if cfg.Adaptive {
					apps.GeminiSSSPAdaptive(e, cfg.Source)
				} else {
					apps.GeminiSSSP(e, cfg.Source)
				}
				collectU64Masters(hg, e.Get, res.Dist)
			case "cc":
				e = gemini.New(h, hg, s, apps.Inf, minU64)
				if cfg.Adaptive {
					apps.GeminiCCAdaptive(e)
				} else {
					apps.GeminiCC(e)
				}
				collectU64Masters(hg, e.Get, res.Dist)
			case "pagerank":
				e = gemini.New(h, hg, s, 0, addU64)
				ranks := apps.GeminiPageRank(e, cfg.PRIters)
				for m := 0; m < hg.NumMasters; m++ {
					res.Ranks[hg.L2G[m]] = ranks[m]
				}
			default:
				panic("bench: unknown app " + cfg.App)
			}
			res.Compute[h.Rank] = e.ComputeTime
			res.Comm[h.Rank] = e.CommTime
			rounds[h.Rank] = e.Rounds
			h.Barrier()
			walls[h.Rank] = time.Since(start)
			mems[h.Rank] = s.Tracker().Max()
			s.Stop()
		})
	res.Wall = maxDur(walls)
	res.Rounds = rounds[0]
	res.MemMax, res.MemMin = minMax(mems)
	res.Snapshot = mergeRegistries(regs)
	res.Net = NetStatsFromSnapshot(res.Snapshot)
	return res
}

// nopLayer satisfies comm.Layer for Gemini runs, which use Streams instead.
type nopLayer struct{}

func (nopLayer) Name() string { return "none" }
func (nopLayer) Exchange(uint32, [][]byte, []bool, []int, func(int, []byte)) {
	panic("bench: exchange on nop layer")
}
func (nopLayer) AllocBuf(n int) []byte      { return make([]byte, n) }
func (nopLayer) Tracker() *memtrack.Tracker { return nil }
func (nopLayer) Stop()                      {}

func minU64(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return a
}

func addU64(a, b uint64) uint64 { return a + b }

func collectU64(hg *partition.HostGraph, get func(lv uint32) uint64, out []uint64) {
	for m := 0; m < hg.NumMasters; m++ {
		out[hg.L2G[m]] = get(uint32(m))
	}
}

func collectU64Masters(hg *partition.HostGraph, get func(lv uint32) uint64, out []uint64) {
	collectU64(hg, get, out)
}

func collectF64(hg *partition.HostGraph, get func(lv uint32) uint64, out []float64) {
	for m := 0; m < hg.NumMasters; m++ {
		out[hg.L2G[m]] = math.Float64frombits(get(uint32(m)))
	}
}

func minMax(xs []int64) (maxv, minv int64) {
	minv = 1 << 62
	for _, x := range xs {
		if x > maxv {
			maxv = x
		}
		if x < minv {
			minv = x
		}
	}
	return maxv, minv
}

// Verify checks a result against the single-host oracle for its app,
// returning an error describing the first mismatch.
func Verify(g *graph.Graph, r *Result) error {
	switch r.Config.App {
	case "bfs", "bfs-dir":
		want := apps.OracleBFS(g, r.Config.Source)
		return cmpU64(want, r.Dist)
	case "sssp", "sssp-delta":
		want := apps.OracleSSSP(g, r.Config.Source)
		return cmpU64(want, r.Dist)
	case "cc":
		want := apps.OracleCC(g)
		return cmpU64(want, r.Dist)
	case "pagerank":
		want := apps.OraclePageRank(g, r.Config.PRIters)
		if d := apps.MaxRankDelta(want, r.Ranks); d > 1e-9 {
			return fmt.Errorf("pagerank: max delta %.3e vs oracle", d)
		}
		return nil
	case "kcore":
		want := apps.OracleKCore(g, g.N, kcoreK)
		return cmpU64(want, r.Dist)
	}
	return fmt.Errorf("unknown app %s", r.Config.App)
}

func cmpU64(want, got []uint64) error {
	if len(want) != len(got) {
		return fmt.Errorf("length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("vertex %d: got %d want %d", i, got[i], want[i])
		}
	}
	return nil
}
