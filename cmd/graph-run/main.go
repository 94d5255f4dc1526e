// Command graph-run executes one distributed graph-analytics run: an
// application (bfs, cc, sssp, pagerank) on a framework (abelian, gemini)
// with a communication layer (lci, mpi-probe, mpi-rma) over a generated
// input, and reports timing, memory and round counts — one cell of the
// paper's Figs. 3/4/6 and Tables II/IV.
//
// Usage:
//
//	graph-run -app pagerank -framework abelian -layer lci -graph rmat -scale 12 -hosts 8
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lcigraph/internal/bench"
	"lcigraph/internal/fabric"
	"lcigraph/internal/graph"
	"lcigraph/internal/mpi"
	"lcigraph/internal/trace"
)

func main() {
	app := flag.String("app", "bfs", "application: bfs, cc, sssp or pagerank")
	framework := flag.String("framework", "abelian", "framework: abelian or gemini")
	layer := flag.String("layer", "lci", "communication layer: lci, mpi-probe or mpi-rma")
	gname := flag.String("graph", "rmat", "input: web, kron or rmat")
	scale := flag.Int("scale", 12, "log2 vertex count")
	seed := flag.Int64("seed", 42, "generator seed")
	hosts := flag.Int("hosts", 4, "simulated hosts")
	threads := flag.Int("threads", 2, "compute threads per host")
	source := flag.Uint("source", 1, "bfs/sssp source vertex")
	prIters := flag.Int("pr-iters", 10, "pagerank iterations")
	profName := flag.String("profile", "omnipath", "NIC profile: omnipath, infiniband or sockets")
	implName := flag.String("impl", "intelmpi", "MPI implementation profile: intelmpi, mvapich2 or openmpi")
	verify := flag.Bool("verify", false, "check the result against the single-host oracle")
	traceCSV := flag.String("trace", "", "write a per-round CSV timeline to this file (abelian only)")
	flag.Parse()

	prof, err := fabric.ProfileByName(*profName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	impl, err := mpi.ImplByName(*implName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("generating %s scale %d...\n", *gname, *scale)
	g := graph.Named(*gname, *scale, *seed)
	fmt.Println(" ", graph.Analyze(*gname, g))

	cfg := bench.Config{
		App: *app, Layer: *layer, Hosts: *hosts, Threads: *threads,
		Source: uint32(*source), PRIters: *prIters, Profile: prof, Impl: impl,
	}
	var tr *trace.Trace
	if *traceCSV != "" {
		tr = trace.New()
		cfg.Trace = tr
	}
	fmt.Printf("running %s on %s with %s, P=%d T=%d...\n",
		*app, *framework, *layer, *hosts, *threads)

	var res *bench.Result
	start := time.Now()
	switch *framework {
	case "abelian":
		res = bench.RunAbelian(g, cfg)
	case "gemini":
		res = bench.RunGemini(g, cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown framework %q\n", *framework)
		os.Exit(2)
	}
	_ = start

	fmt.Printf("  total time:        %v\n", res.Wall)
	fmt.Printf("  rounds:            %d\n", res.Rounds)
	fmt.Printf("  compute (max):     %v\n", res.MaxCompute())
	fmt.Printf("  comm, non-overlap: %v\n", res.MaxComm())
	fmt.Printf("  comm buffers:      max %d B, min %d B across hosts\n", res.MemMax, res.MemMin)
	fmt.Printf("  wire traffic:      %d frames (%d B), %d puts (%d B), %d backpressure retries\n",
		res.Net.Frames, res.Net.FrameBytes, res.Net.Puts, res.Net.PutBytes, res.Net.SendRetries)

	if *verify {
		if err := bench.Verify(g, res); err != nil {
			fmt.Fprintf(os.Stderr, "VERIFY FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("  verify:            OK (matches single-host oracle)")
	}

	if tr != nil {
		f, err := os.Create(*traceCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s := tr.Summarize()
		fmt.Printf("  trace:             %d rounds -> %s (Σ max-across-hosts: compute %v, comm %v)\n",
			s.Rounds, *traceCSV, s.Compute, s.Comm)
	}
}
