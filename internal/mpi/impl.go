package mpi

import (
	"fmt"
	"time"
)

// Impl is an MPI implementation profile: the tunables that differ between
// real MPI builds and drive the Table IV comparison.
type Impl struct {
	Name string
	// EagerLimit is the MPI-level eager/rendezvous threshold in bytes. It
	// must not exceed the fabric's frame limit.
	EagerLimit int
	// UnexpectedCap bounds internal buffering of unexpected eager payload
	// bytes; exceeding it is the unrecoverable failure of §III-B.
	UnexpectedCap int
	// PendingSendCap bounds internally queued sends awaiting network
	// resources before the library gives up (sender-side exhaustion).
	PendingSendCap int
	// CallOverhead is charged on entry to every MPI call (argument
	// checking, handle translation, progress-engine bookkeeping).
	CallOverhead time.Duration
	// MatchOverhead is charged per queue element examined during matching.
	MatchOverhead time.Duration
	// RMAOverhead is charged per one-sided operation.
	RMAOverhead time.Duration
	// UnsafeNoOrdering disables the non-overtaking guarantee (matchable
	// frames are handled in arrival order, not send order). No real MPI
	// allows this — it exists for the ablation quantifying what MPI's
	// ordering semantics cost (DESIGN.md §5, paper §I: "strict message
	// ordering requirements ... are known to be impediments").
	UnsafeNoOrdering bool
}

// IntelMPI models the cluster-default Intel MPI build: the best RMA path and
// moderate matching cost.
func IntelMPI() Impl {
	return Impl{
		Name:           "intelmpi",
		EagerLimit:     4 << 10,
		UnexpectedCap:  4 << 20,
		PendingSendCap: 4096,
		CallOverhead:   120 * time.Nanosecond,
		MatchOverhead:  25 * time.Nanosecond,
		RMAOverhead:    150 * time.Nanosecond,
	}
}

// MVAPICH2 models MVAPICH 2.3b on psm2: cheap calls, pricier matching and
// RMA.
func MVAPICH2() Impl {
	return Impl{
		Name:           "mvapich2",
		EagerLimit:     4 << 10,
		UnexpectedCap:  2 << 20,
		PendingSendCap: 2048,
		CallOverhead:   100 * time.Nanosecond,
		MatchOverhead:  35 * time.Nanosecond,
		RMAOverhead:    260 * time.Nanosecond,
	}
}

// OpenMPI models the tested OpenMPI master build: higher per-call overhead.
func OpenMPI() Impl {
	return Impl{
		Name:           "openmpi",
		EagerLimit:     2 << 10,
		UnexpectedCap:  2 << 20,
		PendingSendCap: 2048,
		CallOverhead:   180 * time.Nanosecond,
		MatchOverhead:  30 * time.Nanosecond,
		RMAOverhead:    220 * time.Nanosecond,
	}
}

// TestImpl is a zero-overhead profile for unit tests.
func TestImpl() Impl {
	return Impl{
		Name:           "test",
		EagerLimit:     512,
		UnexpectedCap:  64 << 10,
		PendingSendCap: 256,
	}
}

// Impls returns the named implementation profiles in Table IV order.
func Impls() []Impl { return []Impl{IntelMPI(), MVAPICH2(), OpenMPI()} }

// ImplByName returns the named implementation profile from Impls.
func ImplByName(name string) (Impl, error) {
	for _, im := range Impls() {
		if im.Name == name {
			return im, nil
		}
	}
	return Impl{}, fmt.Errorf("unknown MPI implementation %q (want intelmpi, mvapich2 or openmpi)", name)
}

// charge busy-waits for d, modelling fixed software overhead on the calling
// thread. Durations under ~50ns are skipped: the surrounding call sequence
// already costs that much.
func charge(d time.Duration) {
	if d < 50*time.Nanosecond {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}
