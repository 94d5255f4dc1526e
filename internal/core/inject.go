package lci

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Fault injection for the progress server itself: Options.InjectStall
// wedges one shard's progress goroutine for a window, simulating the failure
// the health monitor's stuck-rank detector exists to catch (a progress loop
// blocked in a syscall, livelocked, or descheduled for good). The launchers
// set it on a single target rank's options, so the hook only needs to match
// the shard.
//
// The -inject-stall spec after the rank is "shard:after:dur" — shard index,
// delay from Serve start, and stall duration, e.g. "1:3s:10s" wedges shard 1
// for 10s starting 3s in. The stall is one-shot and respects stop, so
// shutdown is never hostage to an injected wedge.

// StallSpec is one parsed injection: which shard to wedge, when and for how
// long.
type StallSpec struct {
	Shard      int
	After, Dur time.Duration
}

// stallInjection is one shard's pending injected wedge (nil on every
// production endpoint: the Serve loop pays a single predictable branch).
type stallInjection struct {
	after time.Duration
	dur   time.Duration
	done  bool // one-shot latch, server goroutine only
}

// ParseInjectStall parses a "shard:after:dur" spec. Exported so the
// launchers can validate their -inject-stall flag with the same grammar.
func ParseInjectStall(s string) (*StallSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("want shard:after:dur, got %q", s)
	}
	shard, err := strconv.Atoi(parts[0])
	if err != nil || shard < 0 {
		return nil, fmt.Errorf("bad shard in %q", s)
	}
	after, err := time.ParseDuration(parts[1])
	if err != nil {
		return nil, fmt.Errorf("bad after in %q: %v", s, err)
	}
	dur, err := time.ParseDuration(parts[2])
	if err != nil || dur <= 0 {
		return nil, fmt.Errorf("bad dur in %q", s)
	}
	return &StallSpec{Shard: shard, After: after, Dur: dur}, nil
}

// armFor returns the injection shard shardIdx should arm: nil unless the
// spec names that shard.
func (s *StallSpec) armFor(shardIdx int) *stallInjection {
	if s == nil || s.Shard != shardIdx {
		return nil
	}
	return &stallInjection{after: s.After, dur: s.Dur}
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
