package bench

import (
	"testing"

	"lcigraph/internal/graph"
	"lcigraph/internal/netfabric"
)

// TestUDPTransportAbelian: the full Abelian stack — LCI layer, core
// endpoint, LCI port — over real loopback UDP sockets produces results
// identical to the in-process simulator (oracle-verified).
func TestUDPTransportAbelian(t *testing.T) {
	g := graph.Named("web", 8, 11)
	for _, app := range []string{"bfs", "pagerank"} {
		cfg := Config{App: app, Layer: LCI, Hosts: 4, Threads: 2, Transport: "udp", Source: 1}
		res := RunAbelian(g, cfg)
		if err := Verify(g, res); err != nil {
			t.Fatalf("%s over udp: %v", app, err)
		}
	}
}

// TestUDPTransportLossy: BFS and PageRank exchanges complete correctly with
// 5% datagram loss plus duplication and reordering injected under every
// rank's traffic — the reliability layer absorbs the faults and the results
// still match the oracle. The retransmit counter proves the loss was real.
func TestUDPTransportLossy(t *testing.T) {
	g := graph.Named("web", 7, 3)
	fault := netfabric.Fault{Loss: 0.05, Dup: 0.02, Reorder: 0.02, Seed: 99}
	// Counters are asserted over both apps together: BFS alone coalesces to
	// so few datagrams that a 5% injector occasionally drops none of them.
	var retransmits, drops int64
	for _, app := range []string{"bfs", "pagerank"} {
		cfg := Config{App: app, Layer: LCI, Hosts: 4, Threads: 2,
			Transport: "udp", Fault: fault, Source: 1, PRIters: 5}
		res := RunAbelian(g, cfg)
		if err := Verify(g, res); err != nil {
			t.Fatalf("%s over lossy udp: %v", app, err)
		}
		retransmits += res.Net.Retransmits
		drops += res.Net.Drops
	}
	if retransmits == 0 {
		t.Fatal("5% injected loss produced zero retransmits")
	}
	if drops == 0 {
		t.Fatal("fault injection counted zero drops")
	}
}

// TestUDPTransportMPI: both MPI layers run over the UDP provider too — the
// probe layer's eager bundles and the RMA layer's windows (which fall back
// to software fragment streams, since UDP reports no RDMA).
func TestUDPTransportMPI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := graph.Named("web", 7, 5)
	for _, layer := range []string{MPIProbe, MPIRMA} {
		cfg := Config{App: "bfs", Layer: layer, Hosts: 3, Threads: 2, Transport: "udp", Source: 1}
		res := RunAbelian(g, cfg)
		if err := Verify(g, res); err != nil {
			t.Fatalf("bfs over udp/%s: %v", layer, err)
		}
	}
}
