// Command lci-serve runs the graph-query serving layer (internal/serve) as
// P real OS processes connected by the UDP fabric provider over loopback:
// every rank keeps its partition of the graph resident, rank 0 accepts
// client connections on a TCP endpoint and scatters adjacency sub-queries
// to the owning ranks over the communication layer.
//
// The parent pre-binds every socket (the ranks' UDP fabric sockets, the
// per-rank telemetry listeners, and the client TCP endpoint) before any
// child exists, then re-executes itself once per rank with its own
// arguments — the same fork model and shared flags as lci-launch, via
// internal/launch. The client listener is inherited by rank 0 as its first
// extra file, so clients can connect the moment the parent prints the
// address; connections simply queue in the accept backlog until the ranks
// are resident.
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"lcigraph/internal/cluster"
	"lcigraph/internal/graph"
	"lcigraph/internal/launch"
	"lcigraph/internal/partition"
	"lcigraph/internal/serve"
)

type options struct {
	launch.Config

	addr  string
	trace bool

	maxInFlight  int
	maxPerClient int
	cacheSize    int

	soak     bool
	qps      float64
	conns    int
	duration time.Duration
	maxP99   time.Duration
	out      string
}

func parseFlags() *options {
	o := &options{Config: launch.DefaultConfig("lci-serve")}
	o.Scale = 12
	o.RegisterFlags(flag.CommandLine)
	flag.StringVar(&o.addr, "addr", "127.0.0.1:0", "client TCP endpoint (rank 0)")
	flag.BoolVar(&o.trace, "trace", false, "record message-lifecycle traces (/debug/trace)")
	flag.IntVar(&o.maxInFlight, "max-inflight", 0, "admission: max resident queries (0 = default)")
	flag.IntVar(&o.maxPerClient, "max-per-client", 0, "admission: max resident queries per client (0 = default)")
	flag.IntVar(&o.cacheSize, "cache", 0, "result-cache entries (0 = default)")
	flag.BoolVar(&o.soak, "soak", false, "drive open-loop load, report, then drain the job")
	flag.Float64Var(&o.qps, "qps", 200, "soak: target aggregate query rate")
	flag.IntVar(&o.conns, "conns", 4, "soak: client connections")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "soak: measured window")
	flag.DurationVar(&o.maxP99, "max-p99", 250*time.Millisecond,
		"soak: p99 latency ceiling (skipped when GOMAXPROCS==1)")
	flag.StringVar(&o.out, "out", "", "soak: write the report JSON here")
	if err := o.Parse(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve:", err)
		os.Exit(2)
	}
	return o
}

func main() {
	o := parseFlags()
	if launch.InChild() {
		os.Exit(child(o))
	}
	os.Exit(parent(o))
}

// parent binds every socket, spawns the ranks, and either hands the job to
// the user (serve mode: wait for ^C, forward it as a drain) or drives it
// itself (soak mode).
func parent(o *options) int {
	// Soak mode scrapes the cache counters from rank 0's live telemetry, so
	// it always binds metrics listeners (ephemeral unless the user chose).
	maddr := o.MetricsAddr
	if maddr == "" && o.soak {
		maddr = "127.0.0.1:0"
	}
	j, err := launch.NewJob(&o.Config)
	if err == nil && maddr != "" {
		err = j.BindMetrics(maddr)
	}
	var clientAddr string
	var cf *os.File
	if err == nil {
		clientAddr, cf, err = bindClients(o.addr)
	}
	if err == nil {
		fmt.Fprintf(os.Stderr, "lci-serve: serving clients on %s\n", clientAddr)
		j.Trace = o.trace
		err = j.Start(os.Args[1:], map[int][]*os.File{0: {cf}})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve:", err)
		return 2
	}

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

// bindClients pre-binds the client endpoint like every other socket; rank
// 0 inherits it as its first extra file. Only that copy stays open, so the
// endpoint dies with rank 0 at drain.
func bindClients(addr string) (string, *os.File, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	defer ln.Close()
	f, err := ln.(*net.TCPListener).File()
	return ln.Addr().String(), f, err
}

// soak drives open-loop load against a started job and writes the report.
// The job is still running when it returns; the caller drains.
func soak(o *options, j *launch.Job, addr string) int {
	r, err := serve.RunSoak(serve.SoakOptions{
		Addr:      addr,
		Conns:     o.conns,
		QPS:       o.qps,
		Duration:  o.duration,
		Seed:      o.Seed,
		MaxVertex: uint32(1) << o.Scale,
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
	s, err := launch.FetchSnapshot(j.MetricsAddrs[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "lci-serve: scrape cache counters: %v\n", err)
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
	r, err := o.Join()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lci-serve child:", err)
		return 2
	}
	var ln net.Listener
	if r.Rank == 0 {
		if ln, err = launch.ExtraListener(0); err != nil {
			fmt.Fprintf(os.Stderr, "lci-serve: client endpoint: %v\n", err)
			return 2
		}
	}

	// Every rank builds the same partition deterministically; EdgeCut keeps
	// a vertex's full out-neighborhood on its owner, which is what lets one
	// adjacency request per (round, owner) answer a frontier.
	g := graph.Named(o.Graph, o.Scale, o.Seed)
	pt := partition.Build(g, r.Size, partition.EdgeCut)
	cfg := serve.Config{
		MaxInFlight:  o.maxInFlight,
		MaxPerClient: o.maxPerClient,
		CacheSize:    o.cacheSize,
		Reg:          r.Reg,
		Tracer:       r.Tracer,
		Health:       r.Mon,
	}
	r.Run(func(h *cluster.Host) {
		s := serve.New(h, pt, cfg)
		if ln == nil {
			s.Run()
			return
		}
		// SIGTERM is the drain signal: stop admitting, finish the resident
		// queries, then stop the workers.
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
	})
	return 0
}
