package launch

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"lcigraph/internal/bench"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/health"
	"lcigraph/internal/incident"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// handoff is what the parent passed a rank besides argv.
type handoff struct {
	rank    int
	addrs   []string
	conn    net.PacketConn
	metrics net.Listener // nil unless the parent bound metrics
	// metricsAddrs lists every rank's telemetry endpoint (rank 0 scrapes
	// its peers); nil without metrics.
	metricsAddrs []string
}

func readHandoff() (*handoff, error) {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		return nil, fmt.Errorf("launch: bad %s: %w", envRank, err)
	}
	h := &handoff{rank: rank, addrs: strings.Split(os.Getenv(envAddrs), ",")}
	if sz := os.Getenv(envSize); sz != strconv.Itoa(len(h.addrs)) {
		return nil, fmt.Errorf("launch: %s=%q disagrees with %d addresses", envSize, sz, len(h.addrs))
	}
	f, err := inherited(envFD)
	if err != nil {
		return nil, err
	}
	h.conn, err = net.FilePacketConn(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("launch: inherited socket: %w", err)
	}
	if os.Getenv(envMetricsFD) != "" {
		f, err := inherited(envMetricsFD)
		if err == nil {
			h.metrics, err = net.FileListener(f)
			f.Close()
		}
		if err != nil {
			h.conn.Close()
			return nil, fmt.Errorf("launch: metrics listener: %w", err)
		}
		h.metricsAddrs = strings.Split(os.Getenv(envMetricsAddrs), ",")
	}
	return h, nil
}

// inherited opens the descriptor named by the handoff variable env.
func inherited(env string) (*os.File, error) {
	fd, err := strconv.Atoi(os.Getenv(env))
	if err != nil {
		return nil, fmt.Errorf("launch: bad %s: %w", env, err)
	}
	return os.NewFile(uintptr(fd), env), nil
}

// ExtraListener picks up the i-th command-specific file the parent passed
// this rank (Start's extra; fd 5+i) as a TCP listener.
func ExtraListener(i int) (net.Listener, error) {
	f := os.NewFile(uintptr(fdExtra+i), "launch-extra")
	ln, err := net.FileListener(f)
	f.Close()
	return ln, err
}

// fabricConfig builds this rank's UDP provider config: the handoff's
// identity and socket, the fault flags, the resolved shard count and the
// user-facing portable-tier knobs.
func (c *Config) fabricConfig(h *handoff) netfabric.Config {
	fc := netfabric.Config{
		Rank: h.rank, Addrs: h.addrs, Conn: h.conn,
		Fault:          netfabric.Fault{Loss: c.Loss, Dup: c.Dup, Reorder: c.Reorder, Seed: c.FaultSeed},
		EndpointShards: c.shards(),
	}
	fc.ApplyEnv()
	return fc
}

// opsLog is the health ops-event log path for rank: -ops-log on rank 0,
// which sees the cluster-wide transitions, and nowhere else.
func (c *Config) opsLog(rank int) string {
	if rank != 0 {
		return ""
	}
	return c.OpsLog
}

// Rank is one launched rank's runtime, built by Config.Join. Commands use
// its parts directly and hand their SPMD program to Run.
type Rank struct {
	Rank, Size int
	Prov       *netfabric.Provider
	Reg        *telemetry.Registry
	Tracer     *tracing.Tracer // nil unless LCI_TRACE
	Mon        *health.Monitor
	Rec        *incident.Recorder // nil without -incident-dir
	Layer      *comm.LCILayer

	threads int
	srv     *http.Server
}

// Join builds this rank from the parent's handoff and c: the UDP provider,
// its telemetry registry, the tracer, the health monitor and incident
// recorder (started, with SIGQUIT wired), the live telemetry endpoint when
// metrics are bound, and an LCI layer sized like the in-process harness.
func (c *Config) Join() (*Rank, error) {
	h, err := readHandoff()
	if err != nil {
		return nil, err
	}
	prov, err := netfabric.New(c.fabricConfig(h))
	if err != nil {
		if h.metrics != nil {
			h.metrics.Close()
		}
		return nil, err
	}
	r := &Rank{Rank: prov.Rank(), Size: prov.Size(), Prov: prov, threads: c.Threads}
	if r.Rank == 0 {
		// One line recording what the kernel capability probes negotiated,
		// so CI logs show which fast-path tier the smoke actually exercised.
		fmt.Fprintf(os.Stderr, "%s: netfabric %s\n", c.Name, prov.Capabilities())
	}
	r.Reg = telemetry.New(r.Rank) // honors LCI_NO_TELEMETRY
	prov.RegisterMetrics(r.Reg)
	r.Tracer = tracing.Default()
	r.Mon = health.New(health.Options{
		Rank: r.Rank, Ranks: r.Size, Reg: r.Reg, Tracer: r.Tracer,
		OpsLogPath: c.opsLog(r.Rank),
	})
	period := c.ProfilePeriod
	if period <= 0 {
		period = -1
	}
	r.Rec = incident.New(incident.Options{
		Rank: r.Rank, Ranks: r.Size, Dir: c.IncidentDir, ProfilePeriod: period,
		Reg: r.Reg, Tracer: r.Tracer, Monitor: r.Mon,
	})
	if r.Rec != nil {
		// The recorder's SIGQUIT handler subsumes the flight-record dump
		// (it dumps, then writes an emergency bundle, then re-raises).
		r.Rec.NotifySignals()
		r.Mon.SetAlertHook(r.Rec.OnAlert)
		r.Mon.SetPumpHook(r.Rec.Pump)
		r.Rec.Start()
	} else {
		r.Tracer.NotifySIGQUIT()
	}
	r.Mon.Start()
	if h.metrics != nil {
		r.srv = r.serveMetrics(h.metrics, h.metricsAddrs)
	}
	opt := bench.LCIOptions(r.Size, c.Threads)
	opt.Shards = c.shards()
	opt.Telemetry = r.Reg
	r.Layer = comm.NewLCILayer(prov, opt)
	return r, nil
}

// Run runs body as this rank's share of the job (cluster.RunRank over the
// layer, with -threads compute threads) and then tears the rank down.
func (r *Rank) Run(body func(h *cluster.Host)) {
	cluster.RunRank(r.Rank, r.Size, r.threads, r.Layer, func(h *cluster.Host) {
		r.Mon.Bind(h.Layer)
		r.Rec.Bind(h.Layer)
		body(h)
		// Stop judging before RunRank tears the layer down: a stopped
		// progress loop is indistinguishable from a wedged one. The
		// recorder goes first so no capture posts on a dying layer.
		r.Rec.Close()
		r.Mon.Close()
	})
	if st := r.Prov.Stats(); st.Retransmits > 0 || st.CreditStalls > 0 {
		fmt.Fprintf(os.Stderr,
			"[rank %d] frames=%d bytes=%d retransmits=%d dropped=%d acks=%d pgyAcks=%d batches=%d/%d creditStalls=%d sockErrs=%d srtt=%s\n",
			r.Rank, st.SendFrames, st.SendBytes, st.Retransmits, st.PacketsDropped,
			st.AcksSent, st.PiggybackAcks, st.SendBatches, st.RecvBatches,
			st.CreditStalls, st.SockErrors, time.Duration(st.RTTNanos))
	}
	if r.srv != nil {
		r.srv.Close()
	}
	r.Prov.Close()
}

// serveMetrics starts the live telemetry endpoint on the inherited
// listener. Rank 0 additionally serves /cluster(.json), scraping every
// peer's /metrics.json and merging. Alongside the metrics, /debug/trace
// (/flight) serve the lifecycle tracer — on rank 0 the trace document
// merges every peer's, scraped from their /debug/trace?local=1 — and
// /healthz (200 OK / 503 DEGRADED|UNHEALTHY) and /debug/health.json (the
// judgment view plus every time series; what cmd/lci-top polls). With an
// incident recorder, /debug/incident (capture status + continuous profile
// inventory) and /debug/incident/capture (trigger an on-demand cross-rank
// capture) join them.
func (r *Rank) serveMetrics(ln net.Listener, addrs []string) *http.Server {
	var clusterFn func() (*telemetry.Snapshot, error)
	var mergedFn func() ([]byte, error)
	if r.Rank == 0 {
		clusterFn = func() (*telemetry.Snapshot, error) { return scrapeCluster(r.Reg, addrs) }
		mergedFn = func() ([]byte, error) { return scrapeTraces(r.Tracer, r.Rank, addrs) }
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/trace", tracing.Handler(r.Tracer, mergedFn))
	mux.Handle("/debug/trace/", tracing.Handler(r.Tracer, mergedFn))
	mux.HandleFunc("/healthz", r.Mon.ServeHealthz)
	mux.HandleFunc("/debug/health.json", r.Mon.ServeJSON)
	if r.Rec != nil {
		mux.HandleFunc("/debug/incident", r.Rec.ServeStatus)
		mux.HandleFunc("/debug/incident/capture", r.Rec.ServeCapture)
	}
	mux.Handle("/", telemetry.Handler(r.Reg, clusterFn))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv
}

// scrapeClient bounds every peer fetch.
var scrapeClient = &http.Client{Timeout: 2 * time.Second}

// fetch GETs path from one rank's telemetry endpoint.
func fetch(addr, path string) ([]byte, error) {
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// FetchSnapshot reads one rank's live telemetry snapshot from its
// /metrics.json endpoint.
func FetchSnapshot(addr string) (*telemetry.Snapshot, error) {
	b, err := fetch(addr, "/metrics.json")
	if err != nil {
		return nil, err
	}
	var s telemetry.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("decode %s/metrics.json: %w", addr, err)
	}
	return &s, nil
}

// scrapeCluster merges this rank's live snapshot with every peer's.
func scrapeCluster(reg *telemetry.Registry, addrs []string) (*telemetry.Snapshot, error) {
	snaps := []*telemetry.Snapshot{reg.Snapshot()}
	for r, a := range addrs {
		if r == 0 || a == "" {
			continue
		}
		s, err := FetchSnapshot(a)
		if err != nil {
			return nil, fmt.Errorf("scrape rank %d: %w", r, err)
		}
		snaps = append(snaps, s)
	}
	return telemetry.Merge(snaps...), nil
}

// scrapeTraces merges this rank's live Chrome trace with every peer's,
// fetched from their /debug/trace?local=1 endpoints.
func scrapeTraces(tr *tracing.Tracer, rank int, addrs []string) ([]byte, error) {
	blobs := [][]byte{tracing.ChromeTrace(tr.Events(), rank)}
	for r, a := range addrs {
		if r == rank || a == "" {
			continue
		}
		b, err := fetch(a, "/debug/trace?local=1")
		if err != nil {
			return nil, fmt.Errorf("scrape rank %d: %w", r, err)
		}
		blobs = append(blobs, b)
	}
	return tracing.MergeChrome(blobs)
}
