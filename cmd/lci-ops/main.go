// Command lci-ops is the operator's one tool for a job's debug surface
// (DESIGN.md §11, "Operator surface"):
//
//	lci-ops top -addr 127.0.0.1:9380            live cluster health view, refreshed every second
//	lci-ops top -addr 127.0.0.1:9380 -interval 250ms
//	lci-ops top -addr 127.0.0.1:9380 -once      one frame, no screen control (CI)
//	lci-ops top -addr 127.0.0.1:9380 -once -json  raw /debug/health.json payload
//	lci-ops verify <bundle.tar.gz>              incident bundle manifest/schema check (CI gate)
//	lci-ops report <bundle.tar.gz>              incident postmortem
//	lci-ops diff   <a.tar.gz> <b.tar.gz>        what changed between two bundles
//
// top, in the spirit of top(1), polls rank 0's /debug/health.json (the
// -metrics-addr a launcher printed) and renders the cluster judgment, a
// per-rank table (status, heartbeat age, superstep progress, barrier skew,
// per-shard progress-poll rates), the active alerts and the fastest-moving
// metric rates. With -once it exits 0 when the cluster judgment is OK and 1
// otherwise, so scripts can gate on it like /healthz. -json (implies -once)
// emits the raw health payload instead of the rendered frame, for jq
// pipelines and log archival, with the same exit codes.
//
// verify, report and diff read the bundles the incident recorder writes
// (internal/incident). verify exits 0 on a well-formed bundle and 1 with one
// problem per line otherwise. report names the trigger (rank:shard for
// progress stalls), attributes the incident per rank and per shard from the
// bundled health time series, diffs the live CPU profile against the
// pre-incident continuous baseline, diffs goroutine counts for leaks, and
// lists the transport hot spots (retransmits, credit stalls, worst-peer
// SRTT). A bad command line exits 2.
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch {
	case cmd == "top":
		top(args)
	case cmd == "verify" && len(args) > 0:
		err = verify(args[0])
	case cmd == "report" && len(args) > 0:
		err = report(args[0])
	case cmd == "diff" && len(args) > 1:
		err = diff(args[0], args[1])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lci-ops top [-addr host:port] [-interval d] [-once] [-json] | verify <bundle> | report <bundle> | diff <a> <b>")
	os.Exit(2)
}
