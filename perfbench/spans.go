package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind names one wrapped call site (or the benchmark's own op span).
type kind uint8

const (
	kOp kind = iota
	kExchange
	kPostTag
	kRecvTag
	kSendMsg
	kRecvMsg
	kProvSend
	kProvPut
	kProvPoll
	kProvPollBatch
	numKinds
)

var kindNames = [numKinds]string{
	kOp:            "op",
	kExchange:      "comm.Layer.Exchange",
	kPostTag:       "comm.AsyncLayer.PostTag",
	kRecvTag:       "comm.AsyncLayer.RecvTag",
	kSendMsg:       "comm.Stream.SendMsg",
	kRecvMsg:       "comm.Stream.RecvMsg",
	kProvSend:      "fabric.Provider.Send",
	kProvPut:       "fabric.Provider.Put",
	kProvPoll:      "fabric.Provider.Poll",
	kProvPollBatch: "fabric.Provider.PollBatch",
}

// Lanes. A lane is a sequence of calls that cannot overlap, so spans on one
// lane nest strictly and self time is well defined there. The rank's main
// goroutine (the one cluster.Run / RunRank hands the body to) is the only
// lane whose spans have children: the op span encloses the layer and
// stream-receive calls it makes. Stream sends run on compute threads and
// provider calls on whatever goroutine makes them (caller or progress
// loop), so they get lanes of their own and are never subtracted from a
// main-lane span.
const (
	laneMain   = 0
	laneThread = 1  // + compute-thread index
	laneAny    = 63 // provider calls: caller or progress goroutine
)

// span is one recorded call that did work.
type span struct {
	kind       kind
	rank, lane uint8
	op         int32 // op index on this rank, -1 outside one
	start, end int64 // ns since the tracer's base
	idle       int64 // op spans: main-lane time in empty polls during the op
}

// kindStats aggregates every call of one kind inside the traced window.
type kindStats struct {
	calls atomic.Int64 // calls that did work (one span each)
	empty atomic.Int64 // polls that found nothing
	ns    atomic.Int64 // time in calls that did work
	bytes atomic.Int64 // payload bytes handed to the call; frames for polls
}

// rankState is the per-rank context the wrappers read.
type rankState struct {
	op     atomic.Int64 // current op index, -1 outside an op
	idleNS atomic.Int64 // main-lane time spent in empty polls
}

// keepFor is how much of a traced window the trace file shows.
const keepFor = int64(200 * time.Millisecond)

// tracer keeps spans in memory while a traced window runs. Aggregates cover
// every call in the window; raw spans are kept for main-lane calls (needed
// for self time) and, for other lanes, only for the window's first keepFor,
// which bounds memory and the trace file.
type tracer struct {
	base     time.Time
	on       atomic.Bool
	keepTill atomic.Int64
	ranks    []rankState
	stats    [numKinds]kindStats

	mu    sync.Mutex
	spans []span
}

func newTracer(ranks int) *tracer {
	t := &tracer{base: time.Now(), ranks: make([]rankState, ranks)}
	for i := range t.ranks {
		t.ranks[i].op.Store(-1)
	}
	return t
}

// now returns the tracer clock. A nil or disabled tracer returns 0 and the
// wrappers skip all accounting.
func (t *tracer) now() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return int64(time.Since(t.base))
}

// resume opens a traced window; calls outside windows (set-up, warm-up)
// are not recorded. The first window starts the trace file's keepFor.
func (t *tracer) resume() {
	t.keepTill.CompareAndSwap(0, int64(time.Since(t.base))+keepFor)
	t.on.Store(true)
}

// pause closes a traced window.
func (t *tracer) pause() { t.on.Store(false) }

// record accounts one call that did work. start == 0 means the call began
// before tracing was on (or tracing is off) and is ignored.
func (t *tracer) record(k kind, rank, lane int, start int64, bytes int) {
	if start == 0 {
		return
	}
	end := t.now()
	if end == 0 {
		return
	}
	st := &t.stats[k]
	st.calls.Add(1)
	st.ns.Add(end - start)
	st.bytes.Add(int64(bytes))
	if lane != laneMain && start > t.keepTill.Load() {
		return
	}
	op := t.ranks[rank].op.Load()
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: k, rank: uint8(rank), lane: uint8(lane),
		op: int32(op), start: start, end: end})
	t.mu.Unlock()
}

// empty accounts one poll that found nothing. Main-lane empty polls add to
// the rank's idle time, which is charged to the enclosing op's children.
func (t *tracer) empty(k kind, rank, lane int, start int64) {
	if start == 0 {
		return
	}
	end := t.now()
	if end == 0 {
		return
	}
	st := &t.stats[k]
	st.empty.Add(1)
	if lane == laneMain {
		t.ranks[rank].idleNS.Add(end - start)
	}
}

// beginOp marks op i as running on rank and returns the span start.
func (t *tracer) beginOp(rank, i int) (start, idle int64) {
	if t == nil {
		return 0, 0
	}
	t.ranks[rank].op.Store(int64(i))
	return t.now(), t.ranks[rank].idleNS.Load()
}

// endOp records the op span begun by beginOp.
func (t *tracer) endOp(rank int, start, idle0 int64) {
	if t == nil {
		return
	}
	op := t.ranks[rank].op.Load()
	t.ranks[rank].op.Store(-1)
	if start == 0 {
		return
	}
	end := t.now()
	if end == 0 {
		return
	}
	st := &t.stats[kOp]
	st.calls.Add(1)
	st.ns.Add(end - start)
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: kOp, rank: uint8(rank), lane: laneMain,
		op: int32(op), start: start, end: end, idle: t.ranks[rank].idleNS.Load() - idle0})
	t.mu.Unlock()
}

// snapshot returns the recorded spans (call after the last pause).
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per kind, the summed self time of the spans: a span's
// duration minus the part of it covered by its children, minus the idle
// time recorded on it. Children are the spans nested directly inside it on
// the same (rank, lane); overlapping children are counted once.
func selfTimes(spans []span) [numKinds]int64 {
	var out [numKinds]int64
	byLane := map[[2]uint8][]span{}
	for _, s := range spans {
		k := [2]uint8{s.rank, s.lane}
		byLane[k] = append(byLane[k], s)
	}
	for _, ss := range byLane {
		// Outer spans first: earlier start, then longer.
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].start != ss[j].start {
				return ss[i].start < ss[j].start
			}
			return ss[i].end > ss[j].end
		})
		// open holds the spans that began earlier and have not ended; the
		// parent is the innermost of them that contains the whole span.
		parent := make([]int, len(ss))
		var open []int
		for i, s := range ss {
			keep := open[:0]
			for _, j := range open {
				if ss[j].end > s.start {
					keep = append(keep, j)
				}
			}
			open = keep
			parent[i] = -1
			for k := len(open) - 1; k >= 0; k-- {
				if s.end <= ss[open[k]].end {
					parent[i] = open[k]
					break
				}
			}
			open = append(open, i)
		}
		// Children arrive in start order, so a running "covered up to"
		// mark per parent merges overlapping children.
		covered := make([]int64, len(ss))
		mark := make([]int64, len(ss))
		for i := range mark {
			mark[i] = ss[i].start
		}
		for i, s := range ss {
			p := parent[i]
			if p < 0 {
				continue
			}
			lo := s.start
			if mark[p] > lo {
				lo = mark[p]
			}
			if s.end > lo {
				covered[p] += s.end - lo
				mark[p] = s.end
			}
		}
		for i, s := range ss {
			out[s.kind] += s.end - s.start - covered[i] - s.idle
		}
	}
	return out
}

// writeChrome writes the kept spans as a Chrome trace (chrome://tracing,
// Perfetto): one process per rank, one thread per lane.
func writeChrome(path string, spans []span, till int64) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args any     `json:"args"`
	}
	evs := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.start > till {
			continue
		}
		evs = append(evs, event{
			Name: kindNames[s.kind], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: int(s.rank), Tid: int(s.lane),
			Args: map[string]int32{"op": s.op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
