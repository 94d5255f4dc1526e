package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/mpi"
)

// All-to-all microbenchmark: the paper stresses that MPI's matching and
// ordering costs worsen "when each host communicates simultaneously with
// many other hosts (resulting in many concurrent pending receives)". This
// measures aggregate small-message rate with P hosts all blasting all
// peers, per interface.

// AllToAllRate returns total delivered messages per second for P hosts
// each sending perPeer messages of size bytes to every other host.
func AllToAllRate(iface string, hosts, perPeer, size int, prof fabric.Profile, impl mpi.Impl) float64 {
	switch iface {
	case IfaceQueue:
		return lciAllToAll(hosts, perPeer, size, prof)
	case IfaceNoProbe, IfaceProbe:
		return mpiAllToAll(iface, hosts, perPeer, size, prof, impl)
	}
	panic("bench: unknown iface " + iface)
}

// peersOf returns all ranks except r, in order: the destination cycle must
// hand every peer exactly perPeer messages or mismatched expectations
// deadlock the exchange.
func peersOf(r, hosts int) []int {
	out := make([]int, 0, hosts-1)
	for p := 0; p < hosts; p++ {
		if p != r {
			out = append(out, p)
		}
	}
	return out
}

func lciAllToAll(hosts, perPeer, size int, prof fabric.Profile) float64 {
	fab := fabric.New(hosts, prof)
	eps := make([]*lci.Endpoint, hosts)
	stop := make(chan struct{})
	defer close(stop)
	for r := 0; r < hosts; r++ {
		eps[r] = lci.NewEndpoint(fab.Endpoint(r), lci.Options{PoolPackets: 64 * hosts})
		go eps[r].Serve(stop)
	}
	expect := (hosts - 1) * perPeer

	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < hosts; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := eps[r]
			peers := peersOf(r, hosts)
			w := e.Pool().RegisterWorker()
			buf := make([]byte, size)
			sent, got := 0, 0
			var pending []*lci.Request
			for sent < expect || got < expect {
				if sent < expect {
					dst := peers[sent%len(peers)] // exactly perPeer each
					if _, ok := e.SendEnq(w, dst, 0, buf); ok {
						sent++
					}
				}
				if rq, ok := e.RecvDeq(); ok {
					if rq.Done() {
						rq.Release()
						got++
					} else {
						pending = append(pending, rq)
					}
				}
				keep := pending[:0]
				for _, rq := range pending {
					if rq.Done() {
						rq.Release()
						got++
					} else {
						keep = append(keep, rq)
					}
				}
				pending = keep
				runtime.Gosched()
			}
		}(r)
	}
	wg.Wait()
	el := time.Since(start)
	return float64(hosts*expect) / el.Seconds()
}

func mpiAllToAll(iface string, hosts, perPeer, size int, prof fabric.Profile, impl mpi.Impl) float64 {
	w := mpi.NewWorld(hosts, prof, impl, mpi.ThreadMultiple)
	expect := (hosts - 1) * perPeer

	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < hosts; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			peers := peersOf(r, hosts)
			buf := make([]byte, size)
			big := make([]byte, maxMsg)
			sent, got := 0, 0
			var rreq *mpi.Request
			for sent < expect || got < expect {
				if sent < expect {
					dst := peers[sent%len(peers)] // exactly perPeer each
					if _, err := c.Isend(buf, dst, 0); err != nil {
						panic(err)
					}
					sent++
				}
				if got < expect {
					switch iface {
					case IfaceNoProbe:
						// Keep one pre-posted max-size receive outstanding;
						// never block — blocking here while peers also
						// block would cycle (sends are interleaved with
						// receives on every host).
						if rreq == nil {
							var err error
							rreq, err = c.Irecv(big, mpi.AnySource, mpi.AnyTag)
							if err != nil {
								panic(err)
							}
						}
						done, err := c.Test(rreq)
						if err != nil {
							panic(err)
						}
						if done {
							rreq = nil
							got++
						}
					case IfaceProbe:
						if st, ok := c.Iprobe(mpi.AnySource, mpi.AnyTag); ok {
							exact := make([]byte, st.Count)
							if _, err := c.Recv(exact, st.Source, st.Tag); err != nil {
								panic(err)
							}
							got++
						}
					}
				}
				runtime.Gosched()
			}
			if err := c.Flush(); err != nil {
				panic(err)
			}
		}(r)
	}
	wg.Wait()
	el := time.Since(start)
	return float64(hosts*expect) / el.Seconds()
}

// AllToAllTable formats the all-to-all sweep across host counts.
func AllToAllTable(hostCounts []int, perPeer int) string {
	var b strings.Builder
	b.WriteString("All-to-all message rate (8 B messages, total msgs/s)\n")
	fmt.Fprintf(&b, "  %-10s", "iface")
	for _, h := range hostCounts {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("P=%d", h))
	}
	b.WriteString("\n")
	for _, iface := range Ifaces() {
		fmt.Fprintf(&b, "  %-10s", iface)
		for _, h := range hostCounts {
			rate := AllToAllRate(iface, h, perPeer, 8, fabric.OmniPath(), mpi.IntelMPI())
			fmt.Fprintf(&b, " %10.0f", rate)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ThreadScaling runs Abelian pagerank end to end across per-host thread
// counts — the paper's claim that applications "scale well to large thread
// counts per host on LCI" while MPI tapers.
func ThreadScaling(e ExpConfig, threadCounts []int) string {
	g := e.inputs()["kron"]
	p := e.Hosts[len(e.Hosts)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "Thread scaling: Abelian pagerank, kron, P=%d\n", p)
	fmt.Fprintf(&b, "  %-10s", "layer")
	for _, tc := range threadCounts {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("T=%d", tc))
	}
	b.WriteString("\n")
	for _, layer := range []string{LCI, MPIProbe} {
		fmt.Fprintf(&b, "  %-10s", layer)
		for _, tc := range threadCounts {
			cfg := e.config("pagerank", layer, p)
			cfg.Threads = tc
			mean, _ := meanOf(e.Repeats, func() *Result { return RunAbelian(g, cfg) })
			fmt.Fprintf(&b, " %12s", mean.Round(time.Microsecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}
