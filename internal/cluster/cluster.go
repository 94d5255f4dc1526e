// Package cluster runs SPMD jobs: P hosts, each with its own communication
// layer and compute-thread pool, standing in for the paper's multi-host
// runs (DESIGN.md §2).
//
// Two execution shapes share one Host API:
//
//   - Run places all P hosts in this process. Barrier and Allreduce are
//     process-local with identical cost for every communication layer, so
//     layer comparisons reflect only the data-synchronization paths the
//     paper instruments.
//   - RunRank executes a single rank whose peers live in other OS
//     processes (cmd/lci-launch). There is no shared memory to lean on, so
//     Barrier and Allreduce ride the communication layer itself as an
//     allgather Exchange on a reserved tag.
package cluster

import (
	"encoding/binary"
	"sync"

	"lcigraph/internal/comm"
	"lcigraph/internal/parallel"
)

// The top of the 8-bit base-tag space is reserved for control traffic that
// runs alongside the frameworks' BSP exchanges. Frameworks allocate their
// field tags from 0 upwards and must stay below ReservedLo; the values are
// part of the wire format and never move.
const (
	// IncidentTag carries incident-capture requests and evidence
	// (internal/incident).
	IncidentTag uint32 = 248
	// HealthTag carries peer health digests to rank 0 (internal/health).
	HealthTag uint32 = 249
	// ServeTagLo is the first of the serving layer's control tags
	// (internal/serve), which run up to CollectiveTag.
	ServeTagLo uint32 = 250
	// CollectiveTag carries Barrier and Allreduce in out-of-process jobs.
	CollectiveTag uint32 = 255

	// ReservedLo is the bottom of the reserved band [ReservedLo, 255].
	ReservedLo = IncidentTag
)

// Host is one host's context inside a job.
type Host struct {
	Rank, P int
	Layer   comm.Layer
	Pool    *parallel.Pool

	sync syncer
}

// syncer supplies the job-wide collectives for one execution shape.
type syncer interface {
	barrier(h *Host)
	allreduce(h *Host, v int64, op func(a, b int64) int64) int64
	gather(h *Host, root int, payload []byte, maxLen int) [][]byte
}

// localJob implements collectives over shared memory for in-process jobs.
type localJob struct {
	bar   *Barrier
	vals  []int64
	parts [][]byte
}

func (j *localJob) barrier(h *Host) { j.bar.Wait() }

func (j *localJob) allreduce(h *Host, v int64, op func(a, b int64) int64) int64 {
	j.vals[h.Rank] = v
	j.bar.Wait()
	acc := j.vals[0]
	for r := 1; r < h.P; r++ {
		acc = op(acc, j.vals[r])
	}
	j.bar.Wait() // nobody overwrites vals until all have read
	return acc
}

func (j *localJob) gather(h *Host, root int, payload []byte, maxLen int) [][]byte {
	j.parts[h.Rank] = payload
	j.bar.Wait()
	var out [][]byte
	if h.Rank == root {
		out = make([][]byte, h.P)
		copy(out, j.parts)
	}
	j.bar.Wait() // nobody reuses parts until the root has read
	return out
}

// netJob implements collectives as an allgather over the communication
// layer: every rank sends its value to every peer on CollectiveTag and
// folds the P contributions in rank order, so all ranks compute the same
// result. Receiving all P-1 contributions doubles as the barrier — a
// peer's message proves it entered this collective, and the layer's
// per-tag epoch bookkeeping keeps successive collectives apart.
type netJob struct{}

func (netJob) allreduce(h *Host, v int64, op func(a, b int64) int64) int64 {
	out := make([][]byte, h.P)
	expect := make([]bool, h.P)
	recvMax := make([]int, h.P)
	vals := make([]int64, h.P)
	for p := 0; p < h.P; p++ {
		if p == h.Rank {
			continue
		}
		b := h.Layer.AllocBuf(8)
		binary.LittleEndian.PutUint64(b, uint64(v))
		out[p] = b
		expect[p] = true
		recvMax[p] = 8
	}
	vals[h.Rank] = v
	h.Layer.Exchange(CollectiveTag, out, expect, recvMax,
		func(peer int, data []byte) {
			vals[peer] = int64(binary.LittleEndian.Uint64(data))
		})
	acc := vals[0]
	for r := 1; r < h.P; r++ {
		acc = op(acc, vals[r])
	}
	return acc
}

func (n netJob) barrier(h *Host) {
	n.allreduce(h, 0, func(a, b int64) int64 { return 0 })
}

// gather ships every rank's payload to root over the layer. Exchange is
// collective per tag, so every rank calls it: non-roots send their payload
// to root and expect nothing; root sends nothing and collects P-1 payloads
// (bounded by maxLen each). Payloads above the eager limit simply ride the
// layer's rendezvous path.
func (netJob) gather(h *Host, root int, payload []byte, maxLen int) [][]byte {
	out := make([][]byte, h.P)
	expect := make([]bool, h.P)
	recvMax := make([]int, h.P)
	if h.Rank == root {
		for p := 0; p < h.P; p++ {
			if p != h.Rank {
				expect[p] = true
				recvMax[p] = maxLen
			}
		}
	} else {
		b := h.Layer.AllocBuf(len(payload))
		copy(b, payload)
		out[root] = b
	}
	var parts [][]byte
	if h.Rank == root {
		parts = make([][]byte, h.P)
		parts[root] = payload
	}
	h.Layer.Exchange(CollectiveTag, out, expect, recvMax,
		func(peer int, data []byte) {
			parts[peer] = append([]byte(nil), data...)
		})
	return parts
}

// Run executes body on p hosts concurrently in this process, each with
// threads compute workers and the layer built by mkLayer, and tears
// everything down when all bodies return.
func Run(p, threads int, mkLayer func(rank int) comm.Layer, body func(h *Host)) {
	j := &localJob{bar: NewBarrier(p), vals: make([]int64, p), parts: make([][]byte, p)}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := &Host{
				Rank:  r,
				P:     p,
				Layer: mkLayer(r),
				Pool:  parallel.NewPool(threads),
				sync:  j,
			}
			body(h)
			h.Barrier() // quiesce before teardown
			h.Layer.Stop()
			h.Pool.Close()
		}(r)
	}
	wg.Wait()
}

// RunRank executes body as rank of a p-rank SPMD job whose other ranks run
// in separate OS processes, all connected by layer's transport. Collectives
// go through the layer (netJob), and teardown mirrors Run: a final barrier
// quiesces the job before the layer stops.
func RunRank(rank, p, threads int, layer comm.Layer, body func(h *Host)) {
	h := &Host{
		Rank:  rank,
		P:     p,
		Layer: layer,
		Pool:  parallel.NewPool(threads),
		sync:  netJob{},
	}
	body(h)
	h.Barrier() // quiesce before teardown
	h.Layer.Stop()
	h.Pool.Close()
}

// Barrier blocks until every host in the job reaches it.
func (h *Host) Barrier() { h.sync.barrier(h) }

// Allreduce combines every host's v with op (associative, commutative) and
// returns the result on all hosts. It is used for quiescence detection
// (global active-vertex counts) at the end of each BSP round.
func (h *Host) Allreduce(v int64, op func(a, b int64) int64) int64 {
	return h.sync.allreduce(h, v, op)
}

// GatherBytes collects every rank's payload at root (a collective — every
// rank must call it). On root it returns P slices indexed by rank (root's
// own entry aliases payload); on other ranks it returns nil. maxLen bounds
// each contribution; it is the receive allocation hint for out-of-process
// jobs. It backs the cross-rank telemetry aggregation in cmd/lci-launch.
func (h *Host) GatherBytes(root int, payload []byte, maxLen int) [][]byte {
	return h.sync.gather(h, root, payload, maxLen)
}

// AllreduceSum is Allreduce with addition.
func (h *Host) AllreduceSum(v int64) int64 {
	return h.Allreduce(v, func(a, b int64) int64 { return a + b })
}

// AllreduceMax is Allreduce with max.
func (h *Host) AllreduceMax(v int64) int64 {
	return h.Allreduce(v, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllreduceMin is Allreduce with min.
func (h *Host) AllreduceMin(v int64) int64 {
	return h.Allreduce(v, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	})
}

// Barrier is a reusable sense-reversing barrier for a fixed participant
// count.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until n goroutines have called Wait in this generation.
func (b *Barrier) Wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
