package launch

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
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
// identity and socket, the fault flags, the shard count, the portable-tier
// flags and the tracer.
func (c *Config) fabricConfig(h *handoff, tr *tracing.Tracer) netfabric.Config {
	return netfabric.Config{
		Rank: h.rank, Addrs: h.addrs, Conn: h.conn,
		Fault:          netfabric.Fault{Loss: c.Loss, Dup: c.Dup, Reorder: c.Reorder, Seed: c.FaultSeed},
		EndpointShards: c.Shards,
		DisableBatchIO: c.NoBatchIO,
		DisableGSO:     c.NoGSO,
		ReaderShards:   c.ReaderShards,
		Tracer:         tr,
	}
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
	Tracer     *tracing.Tracer // nil unless Config.Trace
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
	var tr *tracing.Tracer
	if c.Trace {
		tr = tracing.New(h.rank, 0)
	}
	prov, err := netfabric.New(c.fabricConfig(h, tr))
	if err != nil {
		if h.metrics != nil {
			h.metrics.Close()
		}
		return nil, err
	}
	r := &Rank{Rank: prov.Rank(), Size: prov.Size(), Prov: prov, Tracer: tr, threads: c.Threads}
	if r.Rank == 0 {
		// One line recording what the kernel capability probes negotiated,
		// so CI logs show which fast-path tier the smoke actually exercised.
		fmt.Fprintf(os.Stderr, "%s: netfabric %s\n", c.Name, prov.Capabilities())
	}
	r.Reg = telemetry.NewEnabled(r.Rank)
	prov.RegisterMetrics(r.Reg)
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
		r.srv = &http.Server{Handler: r.routes(h.metricsAddrs)}
		go r.srv.Serve(h.metrics)
	}
	opt := bench.LCIOptions(r.Size, c.Threads)
	opt.Shards = c.Shards
	opt.Telemetry = r.Reg
	opt.Tracer = r.Tracer
	opt.InjectStall = c.stallFor(r.Rank)
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

// routes is a rank's whole operator surface, one route per path (DESIGN.md
// §11, "Operator surface"). Every route is registered whether or not its
// subsystem is on, and a disabled one says so itself. Rank 0 alone serves
// /cluster(.json) and merges every peer's trace, scraping the peers at
// addrs on demand.
func (r *Rank) routes(addrs []string) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) { r.Reg.Snapshot().ServeProm(w) })
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) { r.Reg.Snapshot().ServeJSON(w) })
	if r.Rank == 0 {
		mux.HandleFunc("/cluster", r.serveCluster(addrs, (*telemetry.Snapshot).ServeProm))
		mux.HandleFunc("/cluster.json", r.serveCluster(addrs, (*telemetry.Snapshot).ServeJSON))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/stacks", telemetry.ServeStacks)
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		// ?local=1 asks for this rank's own trace: what rank 0 scrapes.
		var doc []byte
		if r.Rank == 0 && r.Tracer != nil && req.URL.Query().Get("local") == "" {
			if b, err := scrapeTraces(r.Tracer, r.Rank, addrs); err == nil {
				doc = b
			}
		}
		r.Tracer.ServeTrace(w, doc)
	})
	mux.HandleFunc("/debug/trace/flight", r.Tracer.ServeFlight)
	mux.HandleFunc("/healthz", r.Mon.ServeHealthz)
	mux.HandleFunc("/debug/health.json", r.Mon.ServeJSON)
	mux.HandleFunc("/debug/incident", r.Rec.ServeStatus)
	mux.HandleFunc("/debug/incident/capture", r.Rec.ServeCapture)
	return mux
}

// serveCluster answers with every rank's snapshot merged, written by write.
func (r *Rank) serveCluster(addrs []string, write func(*telemetry.Snapshot, http.ResponseWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		snap, err := scrapeCluster(r.Reg, addrs)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		write(snap, w)
	}
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
