// Command experiments regenerates every table and figure of the paper's
// evaluation (§IV) at laptop scale and prints them as text blocks; see
// EXPERIMENTS.md for recorded outputs and the paper-vs-measured comparison.
//
// Usage:
//
//	experiments -all
//	experiments -fig1 -fig3 -scale 11 -hosts 2,4,8
//	experiments -fig1 -profile infiniband -impl mvapich2 -micro-iters 2000
//	experiments -fig4 -impl openmpi
//
// -profile and -impl select the NIC and MPI profiles of Fig 1 and of every
// table that does not sweep them (Table II, Table IV and the portability
// table do).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lcigraph/internal/bench"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
)

func main() {
	all := flag.Bool("all", false, "run everything")
	fig1 := flag.Bool("fig1", false, "Fig 1: microbenchmark")
	table1 := flag.Bool("table1", false, "Table I: inputs")
	fig3 := flag.Bool("fig3", false, "Fig 3: Abelian execution time")
	fig4 := flag.Bool("fig4", false, "Fig 4: Gemini execution time")
	fig5 := flag.Bool("fig5", false, "Fig 5: memory footprint")
	fig6 := flag.Bool("fig6", false, "Fig 6: compute/comm breakdown")
	table2 := flag.Bool("table2", false, "Table II: NIC portability")
	table3 := flag.Bool("table3", false, "Table III: cluster profiles")
	table4 := flag.Bool("table4", false, "Table IV: other MPI implementations")
	ablations := flag.Bool("ablations", false, "design-choice ablations (ordering, aggregation, adaptive Gemini, direction-optimizing BFS, pool locality)")
	portability := flag.Bool("portability", false, "apps across omnipath/infiniband/sockets transports")
	alltoall := flag.Bool("alltoall", false, "all-to-all message-rate microbenchmark")
	threadScaling := flag.Bool("thread-scaling", false, "end-to-end thread-count sweep")

	shards := flag.Int("shards", 1, "progress shards per rank on the LCI layers (1..16)")
	profName := flag.String("profile", "omnipath", "NIC profile: omnipath, infiniband or sockets")
	implName := flag.String("impl", "intelmpi", "MPI implementation profile: intelmpi, mvapich2 or openmpi")

	scale := flag.Int("scale", 0, "graph scale (default from suite)")
	hostsStr := flag.String("hosts", "", "host sweep, e.g. 2,4,8")
	threads := flag.Int("threads", 0, "compute threads per host")
	repeats := flag.Int("repeats", 0, "runs per data point (paper: 5)")
	microIters := flag.Int("micro-iters", 2000, "Fig 1 iterations")
	flag.Parse()

	e := bench.DefaultExp()
	if *shards < 1 || *shards > lci.MaxShards {
		fail(fmt.Errorf("-shards %d: want 1..%d", *shards, lci.MaxShards))
	}
	e.Shards = *shards
	var err error
	if e.Profile, err = fabric.ProfileByName(*profName); err != nil {
		fail(err)
	}
	if e.Impl, err = mpi.ImplByName(*implName); err != nil {
		fail(err)
	}
	if *scale > 0 {
		e.Scale = *scale
	}
	if *threads > 0 {
		e.Threads = *threads
	}
	if *repeats > 0 {
		e.Repeats = *repeats
	}
	if *hostsStr != "" {
		var hs []int
		for _, f := range strings.Split(*hostsStr, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fail(fmt.Errorf("bad -hosts: %v", err))
			}
			hs = append(hs, v)
		}
		e.Hosts = hs
	}

	ran := false
	run := func(enabled bool, name string, fn func() string) {
		if !*all && !enabled {
			return
		}
		ran = true
		fmt.Printf("==== %s ====\n", name)
		fmt.Println(fn())
	}

	run(*table3, "Table III", bench.Table3)
	run(*table1, "Table I", func() string { return bench.Table1(e) })
	run(*fig1, "Fig 1", func() string { return bench.Fig1Table(*microIters, e.Profile, e.Impl) })
	run(*fig3, "Fig 3", func() string { return bench.Fig3(e) })
	run(*fig4, "Fig 4", func() string { return bench.Fig4(e) })
	run(*fig5, "Fig 5", func() string { return bench.Fig5(e) })
	run(*fig6, "Fig 6", func() string { return bench.Fig6(e) })
	run(*table2, "Table II", func() string { return bench.Table2(e) })
	run(*table4, "Table IV", func() string { return bench.Table4(e) })
	run(*portability, "Portability", func() string { return bench.Portability(e) })
	run(*alltoall, "All-to-all", func() string {
		return bench.AllToAllTable([]int{2, 4, 8}, *microIters/4)
	})
	run(*threadScaling, "Thread scaling", func() string {
		return bench.ThreadScaling(e, []int{1, 2, 4, 8})
	})
	run(*ablations, "Ablations", func() string {
		return bench.AblationOrdering(e) + "\n" + bench.AblationAggregation(e) + "\n" +
			bench.AblationAdaptive(e) + "\n" + bench.AblationDirectionBFS(e) + "\n" +
			bench.AblationPoolLocality(4, *microIters)
	})

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// fail reports a bad flag and exits 2, before any run starts.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}
