// Command lci-serve runs the graph-query serving layer (internal/serve) as
// P real OS processes connected by the UDP fabric provider over loopback:
// every rank keeps its partition of the graph resident, rank 0 accepts
// client connections on a TCP endpoint and scatters adjacency sub-queries
// to the owning ranks over the communication layer.
//
// The parent pre-binds every socket (the ranks' UDP fabric sockets, the
// per-rank telemetry listeners, and the client TCP endpoint) before any
// child exists, then re-executes itself once per rank — the same fork model
// as lci-launch, via internal/launch. The client listener is inherited by
// rank 0, so clients can connect the moment the parent prints the address;
// connections simply queue in the accept backlog until the ranks are
// resident.
//
// Usage:
//
//	lci-serve -n 4 -graph web -scale 14                  # serve until ^C
//	lci-serve -n 4 -scale 14 -soak -qps 300 -duration 10s -out serving.json
//	lci-serve -n 4 -loss 0.05 -soak                      # lossy soak
//
// In soak mode the parent doubles as the load generator: it drives
// open-loop load at the target QPS (internal/serve's harness), scrapes the
// result-cache counters from rank 0's live /metrics.json, enforces the p99
// ceiling (skipped when GOMAXPROCS==1 — on one core the tail measures the
// scheduler, not the runtime), writes the -out report, and then drains
// the job: SIGTERM to rank 0 flips the coordinator into draining, resident
// queries finish, workers get the stop control message, and every rank
// exits through the cluster barrier.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lcigraph/internal/bench"
	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/graph"
	"lcigraph/internal/health"
	"lcigraph/internal/incident"
	"lcigraph/internal/launch"
	"lcigraph/internal/netfabric"
	"lcigraph/internal/partition"
	"lcigraph/internal/serve"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// envServeFD carries the inherited client-listener fd to rank 0.
const envServeFD = "LCI_SERVE_FD"

type options struct {
	n       int
	graph   string
	scale   int
	seed    int64
	threads int
	shards  int

	addr        string
	metricsAddr string
	trace       bool
	opsLog      string
	injectStall string
	incidentDir string
	profPeriod  string

	maxInFlight  int
	maxPerClient int
	cacheSize    int

	loss      float64
	dup       float64
	reorder   float64
	faultSeed int64

	soak     bool
	qps      float64
	conns    int
	duration time.Duration
	maxP99   time.Duration
	out      string
}

func parseFlags() *options {
	o := &options{}
	flag.IntVar(&o.n, "n", 4, "number of ranks (OS processes)")
	flag.StringVar(&o.graph, "graph", "web", "graph family: rmat | kron | web")
	flag.IntVar(&o.scale, "scale", 12, "graph scale (2^scale vertices)")
	flag.Int64Var(&o.seed, "seed", 42, "graph generator seed")
	flag.IntVar(&o.threads, "threads", 2, "compute threads per rank")
	flag.IntVar(&o.shards, "shards", 0,
		"progress shards per rank (sets LCI_ENDPOINT_SHARDS; 0 = inherit env, default 1)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:0", "client TCP endpoint (rank 0)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "",
		"serve live telemetry over HTTP; rank r listens on port+r (port 0: ephemeral)")
	flag.BoolVar(&o.trace, "trace", false, "record message-lifecycle traces (/debug/trace)")
	flag.StringVar(&o.opsLog, "ops-log", "",
		"append health ops events (alerts, status changes) as JSONL to this file (rank 0)")
	flag.StringVar(&o.injectStall, "inject-stall", "",
		"fault injection rank:shard:after:dur — wedge that rank's progress shard for dur after the delay")
	flag.StringVar(&o.incidentDir, "incident-dir", "",
		"write alert/on-demand incident bundles (cross-rank postmortem evidence) into this directory")
	flag.StringVar(&o.profPeriod, "profile-period", "",
		"continuous-profiling sampling period (e.g. 60s; 0 disables; default 60s with -incident-dir)")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "admission: max resident queries (0 = default)")
	flag.IntVar(&o.maxPerClient, "max-per-client", 0, "admission: max resident queries per client (0 = default)")
	flag.IntVar(&o.cacheSize, "cache", 0, "result-cache entries (0 = default)")
	flag.Float64Var(&o.loss, "loss", 0, "injected datagram loss rate [0,1)")
	flag.Float64Var(&o.dup, "dup", 0, "injected duplication rate [0,1)")
	flag.Float64Var(&o.reorder, "reorder", 0, "injected reorder rate [0,1)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 0, "fault-injection PRNG seed (0 = default)")
	flag.BoolVar(&o.soak, "soak", false, "drive open-loop load, report, then drain the job")
	flag.Float64Var(&o.qps, "qps", 200, "soak: target aggregate query rate")
	flag.IntVar(&o.conns, "conns", 4, "soak: client connections")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "soak: measured window")
	flag.DurationVar(&o.maxP99, "max-p99", 250*time.Millisecond,
		"soak: p99 latency ceiling (skipped when GOMAXPROCS==1)")
	flag.StringVar(&o.out, "out", "", "soak: write the report JSON here")
	flag.Parse()
	return o
}

func main() {
	o := parseFlags()
	if netfabric.InEnv() {
		os.Exit(child(o))
	}
	os.Exit(parent(o))
}

// parent binds every socket, spawns the ranks, and either hands the job to
// the user (serve mode: wait for ^C, forward it as a drain) or drives it
// itself (soak mode).
func parent(o *options) int {
	j, err := launch.NewJob(o.n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve:", err)
		return 2
	}
	j.Loss, j.Dup, j.Reorder, j.FaultSeed = o.loss, o.dup, o.reorder, o.faultSeed
	j.Trace = o.trace
	// Children inherit the environment: the shard count reaches both the
	// netfabric reader group and the LCI progress shards in every rank.
	if o.shards > 0 {
		os.Setenv(netfabric.EnvEndpointShards, strconv.Itoa(o.shards))
	}
	// Same inheritance route for incident capture.
	if o.incidentDir != "" {
		if err := os.MkdirAll(o.incidentDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "lci-serve:", err)
			return 2
		}
		os.Setenv(incident.EnvIncidentDir, o.incidentDir)
	}
	if o.profPeriod != "" {
		os.Setenv(incident.EnvProfilePeriod, o.profPeriod)
	}

	// Soak mode scrapes the cache counters from rank 0's live telemetry, so
	// it always binds metrics listeners (ephemeral unless the user chose).
	maddr := o.metricsAddr
	if maddr == "" && o.soak {
		maddr = "127.0.0.1:0"
	}
	if maddr != "" {
		if err := j.BindMetrics(maddr); err != nil {
			fmt.Fprintln(os.Stderr, "lci-serve:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "lci-serve: metrics on %s (rank 0 merges at /cluster)\n",
			strings.Join(j.MetricsAddrs, ","))
	}

	// The client endpoint is pre-bound like everything else and inherited by
	// rank 0; with metrics bound it lands at fd 5, otherwise fd 4.
	cln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lci-serve: bind client endpoint: %v\n", err)
		return 2
	}
	clientAddr := cln.Addr().String()
	fmt.Fprintf(os.Stderr, "lci-serve: serving clients on %s\n", clientAddr)
	serveFD := 4
	if maddr != "" {
		serveFD = 5
	}
	henv, err := launch.HealthEnv(o.opsLog, o.injectStall, "lci-serve")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve:", err)
		return 2
	}
	var extraErr error
	extra := func(rank int) ([]string, []*os.File) {
		var env []string
		if henv != nil {
			env = henv(rank)
		}
		if rank != 0 {
			return env, nil
		}
		f, err := cln.(*net.TCPListener).File()
		if err != nil {
			extraErr = err
			return env, nil
		}
		return append(env, fmt.Sprintf("%s=%d", envServeFD, serveFD)), []*os.File{f}
	}
	if err := j.Start(os.Args[1:], extra); err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve:", err)
		return 2
	}
	if extraErr != nil {
		fmt.Fprintf(os.Stderr, "lci-serve: inherit client endpoint: %v\n", extraErr)
		j.Kill()
		return 2
	}
	// Rank 0 holds its inherited copy; the parent's is no longer needed, and
	// closing it means the endpoint dies with rank 0 at drain.
	cln.Close()

	if !o.soak {
		// Serve until interrupted, then translate the interrupt into a
		// graceful drain: SIGTERM to rank 0 only — the workers stop when the
		// coordinator tells them to, after the resident queries finish.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "lci-serve: draining")
			j.Signal(0, syscall.SIGTERM)
		}()
		return j.Wait()
	}

	code := soak(o, j, clientAddr)
	j.Signal(0, syscall.SIGTERM)
	if c := j.Wait(); c != 0 && code == 0 {
		code = c
	}
	return code
}

// soak drives open-loop load against a started job and writes the report.
// The job is still running when it returns; the caller drains.
func soak(o *options, j *launch.Job, addr string) int {
	r, err := serve.RunSoak(serve.SoakOptions{
		Addr:      addr,
		Conns:     o.conns,
		QPS:       o.qps,
		Duration:  o.duration,
		Seed:      o.seed,
		MaxVertex: uint32(1) << o.scale,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve:", err)
		return 1
	}
	r.CacheHitRatio = scrapeCacheRatio(j)

	code := 0
	if err := r.CheckLatency(o.maxP99); err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve:", err)
		code = 1
	}
	fmt.Fprint(os.Stderr, r.Table())
	if o.out != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = launch.WriteFileAtomic(o.out, append(data, '\n'))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "lci-serve: write %s: %v\n", o.out, err)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "lci-serve: report written to %s\n", o.out)
		}
	}
	return code
}

// scrapeCacheRatio reads the result-cache counters from rank 0's live
// /metrics.json; -1 when the scrape fails or nothing was looked up.
func scrapeCacheRatio(j *launch.Job) float64 {
	if len(j.MetricsAddrs) == 0 {
		return -1
	}
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + j.MetricsAddrs[0] + "/metrics.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lci-serve: scrape cache counters: %v\n", err)
		return -1
	}
	defer resp.Body.Close()
	var s telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		fmt.Fprintf(os.Stderr, "lci-serve: decode cache counters: %v\n", err)
		return -1
	}
	hits := s.Counters["lci_serve_cache_hits_total"]
	misses := s.Counters["lci_serve_cache_misses_total"]
	if hits+misses == 0 {
		return -1
	}
	return float64(hits) / float64(hits+misses)
}

// child is one rank: it joins the job through the inherited fabric socket,
// builds the resident partition, and serves until drained.
func child(o *options) int {
	prov, err := netfabric.FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve child:", err)
		return 2
	}
	rank, size := prov.Rank(), prov.Size()
	if rank == 0 {
		fmt.Fprintf(os.Stderr, "lci-serve: netfabric %s\n", prov.Capabilities())
	}

	reg := telemetry.New(rank) // honors LCI_NO_TELEMETRY
	prov.RegisterMetrics(reg)
	tr := tracing.Default() // nil unless LCI_TRACE (the parent sets it for -trace)
	mon := health.New(health.Options{
		Rank: rank, Ranks: size, Reg: reg, Tracer: tr,
		OpsLogPath: os.Getenv(health.EnvOpsLog),
	})
	rec := incident.FromEnv(rank, size, reg, tr, mon)
	if rec != nil {
		rec.NotifySignals() // subsumes the SIGQUIT flight-record dump
		mon.SetAlertHook(rec.OnAlert)
		mon.SetPumpHook(rec.Pump)
		rec.Start()
	} else {
		tr.NotifySIGQUIT()
	}
	mon.Start()
	msrv := launch.ServeMetrics(reg, tr, mon, rec, rank)

	// Every rank builds the same partition deterministically; EdgeCut keeps
	// a vertex's full out-neighborhood on its owner, which is what lets one
	// adjacency request per (round, owner) answer a frontier.
	g := graph.Named(o.graph, o.scale, o.seed)
	pt := partition.Build(g, size, partition.EdgeCut)
	opt := bench.LCIOptions(size, o.threads)
	opt.Telemetry = reg
	layer := comm.NewLCILayer(prov, opt)

	cfg := serve.Config{
		MaxInFlight:  o.maxInFlight,
		MaxPerClient: o.maxPerClient,
		CacheSize:    o.cacheSize,
		Reg:          reg,
		Tracer:       tr,
		Health:       mon,
	}
	cluster.RunRank(rank, size, o.threads, layer, func(h *cluster.Host) {
		mon.Bind(h.Layer)
		rec.Bind(h.Layer)
		s := serve.New(h, pt, cfg)
		if rank == 0 {
			ln, err := launch.InheritedListener(serveFDFromEnv())
			if err != nil {
				fmt.Fprintf(os.Stderr, "lci-serve: client endpoint: %v\n", err)
				os.Exit(2)
			}
			// SIGTERM is the drain signal: stop admitting, finish the
			// resident queries, then stop the workers.
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
			go func() {
				<-sig
				s.InitiateDrain()
			}()
			fe := serve.ServeClients(ln, s)
			s.Run()
			signal.Stop(sig)
			fe.Close()
		} else {
			s.Run()
		}
		// Stop judging before RunRank tears the layer down: a stopped
		// progress loop is indistinguishable from a wedged one. The
		// recorder goes first so no capture posts on a dying layer.
		rec.Close()
		mon.Close()
	})

	if st := prov.Stats(); st.Retransmits > 0 || st.CreditStalls > 0 {
		fmt.Fprintf(os.Stderr, "[rank %d] frames=%d retransmits=%d creditStalls=%d srtt=%s\n",
			rank, st.SendFrames, st.Retransmits, st.CreditStalls, time.Duration(st.RTTNanos))
	}
	if msrv != nil {
		msrv.Close()
	}
	prov.Close()
	return 0
}

func serveFDFromEnv() int {
	fd := 4
	fmt.Sscanf(os.Getenv(envServeFD), "%d", &fd)
	return fd
}
