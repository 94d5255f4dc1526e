package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"lcigraph/internal/comm"
	"lcigraph/internal/fabric"
	"lcigraph/internal/netfabric"
)

// NetfabricVariant measures the small-message exchange over one transport:
// the same fused all-to-all epochs as the datapath benchmark, driven over
// either the in-process simulator or real loopback UDP sockets.
type NetfabricVariant struct {
	Name      string  `json:"name"`
	Transport string  `json:"transport"` // sim | udp
	Loss      float64 `json:"loss"`      // injected datagram loss rate
	MsgSize   int     `json:"msg_size"`
	Messages  int     `json:"messages"`
	NsPerMsg  float64 `json:"ns_per_msg"`

	Retransmits   int64 `json:"retransmits"`
	Drops         int64 `json:"drops"`
	Acks          int64 `json:"acks"`
	CreditStalls  int64 `json:"credit_stalls"`
	SendRetries   int64 `json:"send_retries"`
	SendBatches   int64 `json:"send_batches"`
	RecvBatches   int64 `json:"recv_batches"`
	GSOSends      int64 `json:"gso_sends"`
	GROCoalesced  int64 `json:"gro_coalesced"`
	SockDrops     int64 `json:"sock_drops"`
	PiggybackAcks int64 `json:"piggyback_acks"`
	DelayedAcks   int64 `json:"delayed_acks"`
}

// netfabricSweepRepeats is how many trials each sweep point runs per
// transport, keeping the best: wall time on a shared host is dominated by
// scheduler noise, and repeated trials are how the paper reports numbers.
const netfabricSweepRepeats = 3

// NetfabricSweepPoint is one message size of the sim-vs-UDP sweep: the gap
// is widest for tiny messages (per-datagram overhead dominates) and closes
// as payload grows, which is what the sweep documents.
type NetfabricSweepPoint struct {
	MsgSize  int     `json:"msg_size"`
	PerPeer  int     `json:"per_peer"`
	SimNs    float64 `json:"sim_ns_per_msg"`
	UDPNs    float64 `json:"udp_ns_per_msg"`
	Slowdown float64 `json:"slowdown"`

	// Batching/offload counters for the UDP run at this size, showing which
	// kernel tier carried the traffic (all zero on the sim variant).
	SendBatches  int64 `json:"send_batches"`
	RecvBatches  int64 `json:"recv_batches"`
	GSOSends     int64 `json:"gso_sends"`
	GROCoalesced int64 `json:"gro_coalesced"`
	SockDrops    int64 `json:"sock_drops"`
}

// NetfabricReport is the in-process vs real-network comparison committed
// as BENCH_netfabric.json: the same LCI layer and exchange pattern, with
// only the fabric provider swapped (DESIGN.md §9).
type NetfabricReport struct {
	Hosts   int `json:"hosts"`
	PerPeer int `json:"per_peer"`
	MsgSize int `json:"msg_size"`
	Epochs  int `json:"epochs"`

	Sim      NetfabricVariant `json:"sim"`
	UDP      NetfabricVariant `json:"udp"`
	UDPLossy NetfabricVariant `json:"udp_lossy"`

	UDPSlowdown  float64 `json:"udp_slowdown"`  // UDP ns/msg over sim ns/msg
	LossOverhead float64 `json:"loss_overhead"` // lossy ns/msg over clean UDP

	// Sweep compares sim vs clean UDP across message sizes (eager tiny,
	// eager large, rendezvous).
	Sweep []NetfabricSweepPoint `json:"sweep"`

	// Ablations re-run the clean-UDP exchange with one hot-path
	// optimization disabled each, quantifying its contribution: no-batch
	// (one syscall per datagram) and fixed-rto (no RTT adaptation) at 64B;
	// no-gso (fragment trains sent datagram-at-a-time) and shards-1 (single
	// reader socket) at 64KiB where the offload tier carries the traffic.
	Ablations []NetfabricVariant `json:"ablations"`

	// Endpoint-shards arm: the multi-threaded-progress ablation (DESIGN.md
	// §15). The same clean-UDP exchange with one progress shard vs
	// ShardCount shards, best of netfabricSweepRepeats trials each.
	// ShardSpeedup is shards=1 ns/msg over shards=K ns/msg (> 1 means
	// sharding helped). The speedup claim is only meaningful with cores to
	// run the K progress goroutines on, so — the same guard pattern as
	// BENCH_serving.json's p99 ceiling — ShardsChecked records whether this
	// host had GOMAXPROCS ≥ ShardCount; on smaller hosts the numbers are
	// still reported but assert nothing.
	Shards1       NetfabricVariant `json:"shards_1"`
	ShardsK       NetfabricVariant `json:"shards_k"`
	ShardCount    int              `json:"shard_count"`
	ShardSpeedup  float64          `json:"shard_speedup"`
	GOMAXPROCS    int              `json:"gomaxprocs"`
	ShardsChecked bool             `json:"shards_checked"`
}

// runNetfabricEpochs drives the fused all-to-all exchange over prebuilt
// layers: one warm-up epoch, then epochs timed ones (the datapath
// benchmark's loop, reused verbatim so transports compare like for like).
func runNetfabricEpochs(layers []*comm.LCILayer, perPeer, size, epochs int) time.Duration {
	hosts := len(layers)
	perEpoch := (hosts - 1) * perPeer
	runEpoch := func(tag uint32) {
		var wg sync.WaitGroup
		for r := range layers {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				l := layers[r]
				eff := l.BeginFused(tag)
				for p := 0; p < hosts; p++ {
					if p == r {
						continue
					}
					for i := 0; i < perPeer; i++ {
						buf := l.AllocBuf(size)
						buf[0] = byte(i)
						l.SendFused(i, p, eff, buf)
					}
				}
				l.FinishFusedCount(eff, perEpoch, func(int, []byte) {})
			}(r)
		}
		wg.Wait()
	}
	runEpoch(1) // warm-up
	start := time.Now()
	for e := 0; e < epochs; e++ {
		runEpoch(2)
	}
	return time.Since(start)
}

func fillVariant(v *NetfabricVariant, hosts, perPeer, epochs int, wall time.Duration, net NetStats) {
	v.Messages = hosts * (hosts - 1) * perPeer * epochs
	v.NsPerMsg = float64(wall.Nanoseconds()) / float64(v.Messages)
	v.Retransmits = net.Retransmits
	v.Drops = net.Drops
	v.Acks = net.Acks
	v.CreditStalls = net.CreditStalls
	v.SendRetries = net.SendRetries
	v.SendBatches = net.SendBatches
	v.RecvBatches = net.RecvBatches
	v.GSOSends = net.GSOSends
	v.GROCoalesced = net.GROCoalesced
	v.SockDrops = net.SockDrops
	v.PiggybackAcks = net.PiggybackAcks
	v.DelayedAcks = net.DelayedAcks
}

func netfabricVariantSim(hosts, perPeer, size, epochs int) NetfabricVariant {
	fab := fabric.New(hosts, fabric.TestProfile())
	feps := make([]fabric.Provider, hosts)
	for r := range feps {
		feps[r] = fab.Endpoint(r)
	}
	regs := hostRegistries(feps)
	layers := make([]*comm.LCILayer, hosts)
	for r := range layers {
		opt := LCIOptions(hosts, 2)
		opt.Telemetry = regs[r]
		layers[r] = comm.NewLCILayer(feps[r], opt)
	}
	wall := runNetfabricEpochs(layers, perPeer, size, epochs)
	for _, l := range layers {
		l.Stop()
	}
	v := NetfabricVariant{Name: "sim", Transport: "sim", MsgSize: size}
	fillVariant(&v, hosts, perPeer, epochs, wall, NetStatsFromSnapshot(mergeRegistries(regs)))
	return v
}

func netfabricVariantUDP(name string, hosts, perPeer, size, epochs int, cfg netfabric.Config) (NetfabricVariant, error) {
	provs, err := netfabric.NewLoopbackGroup(hosts, cfg)
	if err != nil {
		return NetfabricVariant{}, err
	}
	feps := make([]fabric.Provider, hosts)
	for r := range feps {
		feps[r] = provs[r]
	}
	regs := hostRegistries(feps)
	layers := make([]*comm.LCILayer, hosts)
	for r := range layers {
		opt := LCIOptions(hosts, 2)
		opt.Telemetry = regs[r]
		if cfg.EndpointShards > 0 {
			// Explicit shard arm: pin the progress-shard count regardless
			// of the LCI_ENDPOINT_SHARDS environment default.
			opt.Shards = cfg.EndpointShards
		}
		layers[r] = comm.NewLCILayer(feps[r], opt)
	}
	wall := runNetfabricEpochs(layers, perPeer, size, epochs)
	for _, l := range layers {
		l.Stop()
	}
	net := NetStatsFromSnapshot(mergeRegistries(regs))
	netfabric.CloseGroup(provs)
	v := NetfabricVariant{Name: name, Transport: "udp", Loss: cfg.Fault.Loss, MsgSize: size}
	fillVariant(&v, hosts, perPeer, epochs, wall, net)
	return v, nil
}

// Netfabric runs the transport comparison. Zero or negative arguments select
// the defaults used for BENCH_netfabric.json (4 hosts, 32 messages of 64
// bytes per peer, 10 epochs).
func Netfabric(hosts, perPeer, size, epochs int) (NetfabricReport, error) {
	if hosts <= 0 {
		hosts = 4
	}
	if perPeer <= 0 {
		perPeer = 32
	}
	if size <= 0 {
		size = 64
	}
	if epochs <= 0 {
		epochs = 10
	}
	r := NetfabricReport{Hosts: hosts, PerPeer: perPeer, MsgSize: size, Epochs: epochs}
	r.Sim = netfabricVariantSim(hosts, perPeer, size, epochs)
	var err error
	if r.UDP, err = netfabricVariantUDP("udp", hosts, perPeer, size, epochs, netfabric.Config{}); err != nil {
		return r, err
	}
	lossy := netfabric.Fault{Loss: 0.05, Dup: 0.02, Reorder: 0.02, Seed: 7}
	if r.UDPLossy, err = netfabricVariantUDP("udp+5%loss", hosts, perPeer, size, epochs, netfabric.Config{Fault: lossy}); err != nil {
		return r, err
	}
	if r.Sim.NsPerMsg > 0 {
		r.UDPSlowdown = r.UDP.NsPerMsg / r.Sim.NsPerMsg
	}
	if r.UDP.NsPerMsg > 0 {
		r.LossOverhead = r.UDPLossy.NsPerMsg / r.UDP.NsPerMsg
	}

	// Message-size sweep: the per-datagram costs the hot path amortizes
	// matter most at 64B; 4KiB is still eager but payload-dominated; 64KiB
	// takes the rendezvous fragmented-send path end to end. Each point is
	// the best of netfabricSweepRepeats trials per transport: on a loaded
	// host a single trial's wall time is dominated by scheduler noise, and
	// the paper reports repeated-trial results for the same reason.
	for _, pt := range []struct{ size, perPeer int }{
		{64, perPeer}, {4 << 10, (perPeer + 3) / 4}, {64 << 10, (perPeer + 15) / 16},
	} {
		sim := netfabricVariantSim(hosts, pt.perPeer, pt.size, epochs)
		for t := 1; t < netfabricSweepRepeats; t++ {
			if again := netfabricVariantSim(hosts, pt.perPeer, pt.size, epochs); again.NsPerMsg < sim.NsPerMsg {
				sim = again
			}
		}
		udp, err := netfabricVariantUDP("udp", hosts, pt.perPeer, pt.size, epochs, netfabric.Config{})
		if err != nil {
			return r, err
		}
		for t := 1; t < netfabricSweepRepeats; t++ {
			again, err := netfabricVariantUDP("udp", hosts, pt.perPeer, pt.size, epochs, netfabric.Config{})
			if err != nil {
				return r, err
			}
			if again.NsPerMsg < udp.NsPerMsg {
				udp = again
			}
		}
		sp := NetfabricSweepPoint{
			MsgSize: pt.size, PerPeer: pt.perPeer, SimNs: sim.NsPerMsg, UDPNs: udp.NsPerMsg,
			SendBatches: udp.SendBatches, RecvBatches: udp.RecvBatches,
			GSOSends: udp.GSOSends, GROCoalesced: udp.GROCoalesced, SockDrops: udp.SockDrops,
		}
		if sp.SimNs > 0 {
			sp.Slowdown = sp.UDPNs / sp.SimNs
		}
		r.Sweep = append(r.Sweep, sp)
	}

	// Ablations: one hot-path optimization off each. The batching knobs run
	// at 64B where per-datagram overhead dominates; the offload knobs run at
	// 64KiB where segmentation offload is what collapses the fragment
	// trains, so each row isolates its tier at the size it targets.
	large, largePer := 64<<10, (perPeer+15)/16
	for _, ab := range []struct {
		name          string
		size, perPeer int
		cfg           netfabric.Config
	}{
		{"no-batch", size, perPeer, netfabric.Config{DisableBatchIO: true}},
		{"fixed-rto", size, perPeer, netfabric.Config{FixedRTO: true}},
		{"no-gso", large, largePer, netfabric.Config{DisableGSO: true}},
		{"shards-1", large, largePer, netfabric.Config{ReaderShards: 1}},
	} {
		v, err := netfabricVariantUDP(ab.name, hosts, ab.perPeer, ab.size, epochs, ab.cfg)
		if err != nil {
			return r, err
		}
		r.Ablations = append(r.Ablations, v)
	}

	// Endpoint-shards arm at the default (64B-dominated) point, where the
	// single progress goroutine is the per-rank ceiling being measured.
	// Best-of-N for the same scheduler-noise reason as the sweep.
	r.ShardCount = 4
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.ShardsChecked = r.GOMAXPROCS >= r.ShardCount
	shardArm := func(name string, k int) (NetfabricVariant, error) {
		best, err := netfabricVariantUDP(name, hosts, perPeer, size, epochs, netfabric.Config{EndpointShards: k})
		if err != nil {
			return best, err
		}
		for t := 1; t < netfabricSweepRepeats; t++ {
			again, err := netfabricVariantUDP(name, hosts, perPeer, size, epochs, netfabric.Config{EndpointShards: k})
			if err != nil {
				return best, err
			}
			if again.NsPerMsg < best.NsPerMsg {
				best = again
			}
		}
		return best, nil
	}
	if r.Shards1, err = shardArm("epshards-1", 1); err != nil {
		return r, err
	}
	if r.ShardsK, err = shardArm(fmt.Sprintf("epshards-%d", r.ShardCount), r.ShardCount); err != nil {
		return r, err
	}
	if r.ShardsK.NsPerMsg > 0 {
		r.ShardSpeedup = r.Shards1.NsPerMsg / r.ShardsK.NsPerMsg
	}
	return r, nil
}

// Table renders the report for cmd/experiments and `make bench-netfabric`.
func (r NetfabricReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Netfabric: %d hosts, %d x %dB msgs/peer/epoch, %d epochs (%d msgs/variant)\n",
		r.Hosts, r.PerPeer, r.MsgSize, r.Epochs, r.Sim.Messages)
	fmt.Fprintf(&b, "%-13s %7s %10s %12s %8s %8s %9s %9s %6s %6s %8s\n",
		"variant", "size", "ns/msg", "retransmits", "drops", "acks", "pgyacks", "batches", "gso", "gro", "retries")
	vs := []NetfabricVariant{r.Sim, r.UDP, r.UDPLossy}
	vs = append(vs, r.Ablations...)
	vs = append(vs, r.Shards1, r.ShardsK)
	for _, v := range vs {
		fmt.Fprintf(&b, "%-13s %6dB %10.0f %12d %8d %8d %9d %9d %6d %6d %8d\n",
			v.Name, v.MsgSize, v.NsPerMsg, v.Retransmits, v.Drops, v.Acks, v.PiggybackAcks,
			v.SendBatches+v.RecvBatches, v.GSOSends, v.GROCoalesced, v.SendRetries)
	}
	fmt.Fprintf(&b, "udp slowdown over sim: %.1fx; 5%% loss overhead over clean udp: %.1fx\n",
		r.UDPSlowdown, r.LossOverhead)
	checked := "checked"
	if !r.ShardsChecked {
		checked = fmt.Sprintf("NOT checked: GOMAXPROCS=%d < %d shards", r.GOMAXPROCS, r.ShardCount)
	}
	fmt.Fprintf(&b, "endpoint shards 1->%d speedup: %.2fx (%s)\n", r.ShardCount, r.ShardSpeedup, checked)
	for _, sp := range r.Sweep {
		fmt.Fprintf(&b, "sweep %6dB x%-3d sim %8.0f ns/msg  udp %8.0f ns/msg  slowdown %5.1fx  batches %d/%d gso %d gro %d\n",
			sp.MsgSize, sp.PerPeer, sp.SimNs, sp.UDPNs, sp.Slowdown,
			sp.SendBatches, sp.RecvBatches, sp.GSOSends, sp.GROCoalesced)
	}
	return b.String()
}

// WriteJSON writes the report to path (BENCH_netfabric.json).
func (r NetfabricReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
