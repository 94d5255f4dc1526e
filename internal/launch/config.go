package launch

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	lci "lcigraph/internal/core"
)

// Config holds the settings lci-launch and lci-serve share. Both parse it
// from the same argv in the parent and in every rank (Job.Start re-executes
// the binary with the parent's arguments), so none of it crosses the fork by
// environment: the parent rejects bad values before any rank starts, and
// each rank derives its fabric, endpoint, tracing, health and incident
// settings from it.
type Config struct {
	// Name prefixes diagnostics ("lci-launch", "lci-serve"); not a flag.
	Name string
	// Trace turns message-lifecycle tracing on in every rank; not a flag
	// here (the command sets it from its own -trace or -trace-out).
	Trace bool

	N       int
	Graph   string
	Scale   int
	Seed    int64
	Threads int
	Shards  int // progress shards per rank, 1..lci.MaxShards

	MetricsAddr   string
	OpsLog        string
	InjectStall   string // "rank:shard:after:dur"
	IncidentDir   string
	ProfilePeriod time.Duration // ≤ 0 disables continuous profiling

	Loss, Dup, Reorder float64
	FaultSeed          int64

	// The UDP fabric's portable tiers and receive-socket count.
	NoBatchIO, NoGSO bool
	ReaderShards     int // 0: the fabric's default
}

// DefaultConfig returns the shared defaults; a command adjusts fields before
// RegisterFlags to change what its -h prints.
func DefaultConfig(name string) Config {
	return Config{Name: name, N: 4, Graph: "web", Scale: 10, Seed: 42, Threads: 2, Shards: 1,
		ProfilePeriod: 60 * time.Second}
}

// RegisterFlags binds every shared setting to fs, using c's current field
// values as the defaults.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.N, "n", c.N, "number of ranks (OS processes)")
	fs.StringVar(&c.Graph, "graph", c.Graph, "graph family: rmat | kron | web")
	fs.IntVar(&c.Scale, "scale", c.Scale, "graph scale (2^scale vertices)")
	fs.Int64Var(&c.Seed, "seed", c.Seed, "graph generator seed")
	fs.IntVar(&c.Threads, "threads", c.Threads, "compute threads per rank")
	fs.IntVar(&c.Shards, "shards", c.Shards,
		fmt.Sprintf("progress shards per rank (1..%d)", lci.MaxShards))
	fs.StringVar(&c.MetricsAddr, "metrics-addr", c.MetricsAddr,
		"serve live telemetry over HTTP; rank r listens on port+r (port 0: ephemeral)")
	fs.StringVar(&c.OpsLog, "ops-log", c.OpsLog,
		"append health ops events (alerts, status changes) as JSONL to this file (rank 0)")
	fs.StringVar(&c.InjectStall, "inject-stall", c.InjectStall,
		"fault injection rank:shard:after:dur — wedge that rank's progress shard for dur after the delay")
	fs.StringVar(&c.IncidentDir, "incident-dir", c.IncidentDir,
		"write alert/on-demand incident bundles (cross-rank postmortem evidence) into this directory")
	fs.DurationVar(&c.ProfilePeriod, "profile-period", c.ProfilePeriod,
		"continuous-profiling sampling period with -incident-dir (0 disables)")
	fs.Float64Var(&c.Loss, "loss", c.Loss, "injected datagram loss rate [0,1)")
	fs.Float64Var(&c.Dup, "dup", c.Dup, "injected duplication rate [0,1)")
	fs.Float64Var(&c.Reorder, "reorder", c.Reorder, "injected reorder rate [0,1)")
	fs.Int64Var(&c.FaultSeed, "fault-seed", c.FaultSeed, "fault-injection PRNG seed (0 = default)")
	fs.BoolVar(&c.NoBatchIO, "no-batch-io", c.NoBatchIO,
		"UDP fabric: one syscall per datagram, no batch I/O (implies -no-gso)")
	fs.BoolVar(&c.NoGSO, "no-gso", c.NoGSO, "UDP fabric: no segmentation offload (GSO/GRO)")
	fs.IntVar(&c.ReaderShards, "reader-shards", c.ReaderShards,
		"UDP fabric: receive sockets per rank, 1..16, raised to -shards (default min(4, CPUs))")
}

// Parse parses args into fs (which carries c's flags from RegisterFlags
// next to the command's own) and validates the shared settings.
func (c *Config) Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"loss", c.Loss}, {"dup", c.Dup}, {"reorder", c.Reorder}} {
		if !(r.v >= 0 && r.v < 1) {
			return fmt.Errorf("-%s %v: want a rate in [0,1)", r.name, r.v)
		}
	}
	if c.Shards < 1 || c.Shards > lci.MaxShards {
		return fmt.Errorf("-shards %d: want 1..%d", c.Shards, lci.MaxShards)
	}
	// The default 0 defers to the fabric; a value given on the command
	// line must be a real count.
	var err error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "reader-shards" && (c.ReaderShards < 1 || c.ReaderShards > 16) {
			err = fmt.Errorf("-reader-shards %d: want 1..16", c.ReaderShards)
		}
	})
	if err == nil {
		_, _, err = c.stall()
	}
	return err
}

// stall splits -inject-stall into the target rank and the parsed
// shard:after:dur spec; rank -1 when the flag is unset.
func (c *Config) stall() (rank int, spec *lci.StallSpec, err error) {
	if c.InjectStall == "" {
		return -1, nil, nil
	}
	r, s, ok := strings.Cut(c.InjectStall, ":")
	rank, err = strconv.Atoi(r)
	if !ok || err != nil || rank < 0 {
		return -1, nil, fmt.Errorf("-inject-stall %q: want rank:shard:after:dur", c.InjectStall)
	}
	if spec, err = lci.ParseInjectStall(s); err != nil {
		return -1, nil, fmt.Errorf("-inject-stall %q: %v", c.InjectStall, err)
	}
	return rank, spec, nil
}

// stallFor is the stall injection rank arms: -inject-stall's spec on the
// rank it names, nil everywhere else.
func (c *Config) stallFor(rank int) *lci.StallSpec {
	if r, spec, _ := c.stall(); r == rank {
		return spec
	}
	return nil
}
