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
// each rank derives its fabric, health and incident settings from it.
type Config struct {
	// Name prefixes diagnostics ("lci-launch", "lci-serve"); not a flag.
	Name string

	N       int
	Graph   string
	Scale   int
	Seed    int64
	Threads int
	// Shards is the progress-shard count per rank; 0 inherits
	// LCI_ENDPOINT_SHARDS (default 1).
	Shards int

	MetricsAddr   string
	OpsLog        string
	InjectStall   string // "rank:shard:after:dur"
	IncidentDir   string
	ProfilePeriod time.Duration // ≤ 0 disables continuous profiling

	Loss, Dup, Reorder float64
	FaultSeed          int64
}

// DefaultConfig returns the shared defaults; a command adjusts fields before
// RegisterFlags to change what its -h prints.
func DefaultConfig(name string) Config {
	return Config{Name: name, N: 4, Graph: "web", Scale: 10, Seed: 42, Threads: 2,
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
		"progress shards per rank (0 = inherit LCI_ENDPOINT_SHARDS, default 1)")
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
	_, _, err := c.stall()
	return err
}

// stall splits -inject-stall into the target rank and the shard:after:dur
// spec core reads from LCI_INJECT_STALL; rank -1 when the flag is unset.
func (c *Config) stall() (rank int, spec string, err error) {
	if c.InjectStall == "" {
		return -1, "", nil
	}
	r, spec, ok := strings.Cut(c.InjectStall, ":")
	rank, err = strconv.Atoi(r)
	if !ok || err != nil || rank < 0 {
		return -1, "", fmt.Errorf("-inject-stall %q: want rank:shard:after:dur", c.InjectStall)
	}
	if _, _, _, err := lci.ParseInjectStall(spec); err != nil {
		return -1, "", fmt.Errorf("-inject-stall %q: %v", c.InjectStall, err)
	}
	return rank, spec, nil
}

// shards resolves -shards: the flag when set, else LCI_ENDPOINT_SHARDS.
func (c *Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return lci.ShardsFromEnv()
}
