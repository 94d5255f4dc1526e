package lci

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Fault injection for the progress server itself: LCI_INJECT_STALL wedges
// one shard's progress goroutine for a window, simulating the failure the
// health monitor's stuck-rank detector exists to catch (a progress loop
// blocked in a syscall, livelocked, or descheduled for good). The launchers
// set the variable for a single target rank, so the hook only needs to
// match the shard.
//
// Format: "shard:after:dur" — shard index, delay from Serve start, and
// stall duration, e.g. "1:3s:10s" wedges shard 1 for 10s starting 3s in.
// The stall is one-shot and respects stop, so shutdown is never hostage to
// an injected wedge.

// EnvInjectStall is the environment knob, read once per process.
const EnvInjectStall = "LCI_INJECT_STALL"

// stallInjection is one shard's pending injected wedge (nil on every
// production endpoint: the Serve loop pays a single predictable branch).
type stallInjection struct {
	after time.Duration
	dur   time.Duration
	done  bool // one-shot latch, server goroutine only
}

// ParseInjectStall parses an LCI_INJECT_STALL value. Exported so the
// launchers can validate their -inject-stall flag with the same grammar.
func ParseInjectStall(s string) (shard int, after, dur time.Duration, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("want shard:after:dur, got %q", s)
	}
	shard, err = strconv.Atoi(parts[0])
	if err != nil || shard < 0 {
		return 0, 0, 0, fmt.Errorf("bad shard in %q", s)
	}
	after, err = time.ParseDuration(parts[1])
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad after in %q: %v", s, err)
	}
	dur, err = time.ParseDuration(parts[2])
	if err != nil || dur <= 0 {
		return 0, 0, 0, fmt.Errorf("bad dur in %q", s)
	}
	return shard, after, dur, nil
}

// injectStallFor returns the injection this shard should arm, nil for all
// shards when the knob is unset or malformed.
func injectStallFor(shardIdx int) *stallInjection {
	v := os.Getenv(EnvInjectStall)
	if v == "" {
		return nil
	}
	shard, after, dur, err := ParseInjectStall(v)
	if err != nil || shard != shardIdx {
		return nil
	}
	return &stallInjection{after: after, dur: dur}
}

// maybeInjectStall wedges the calling (server) goroutine once the arm delay
// has elapsed. Called from Serve only when an injection is configured.
func (e *Endpoint) maybeInjectStall(start time.Time, stop <-chan struct{}) {
	inj := e.injectStall
	if inj.done || time.Since(start) < inj.after {
		return
	}
	inj.done = true
	fmt.Fprintf(os.Stderr, "lci: injected stall: rank %d shard %d/%d wedged for %v\n",
		e.rank, e.shardIdx, e.shardTotal, inj.dur)
	// Hold the progress lock for the window, so owners that progress inline
	// are wedged out too, as they would be behind a pass stuck in a syscall.
	e.progMu.Lock()
	defer e.progMu.Unlock()
	t := time.NewTimer(inj.dur)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}
