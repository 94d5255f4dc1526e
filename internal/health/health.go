// Package health is the cluster health monitor (DESIGN.md §16): the layer
// that turns the raw observability signals — the telemetry registry (PR 4)
// and the lifecycle tracer (PR 5) — into judgments an operator can act on.
//
// Each rank runs a Monitor that samples its registry on a ticker into
// bounded ring-buffer time series (rates from counters, windowed p50/p99
// from histograms, levels from gauges) and runs detectors over them:
// per-shard progress-stall scoring, transport stall trends, and serving SLO
// burn (p99 latency, shed fraction) with hysteresis so an alert latches
// once per episode. Non-zero ranks additionally post compact heartbeat
// digests to rank 0 over the communication layer itself on a reserved tag
// (cluster.HealthTag), so rank 0 holds a cluster-wide view — per-rank
// status, superstep straggler/skew scores, missed-heartbeat detection —
// even when a peer's HTTP endpoint is unreachable.
//
// The judgments surface four ways: /healthz (machine-readable
// OK/DEGRADED/UNHEALTHY, HTTP 200/503), /debug/health.json (full
// time-series + the cluster view cmd/lci-top renders live), a structured
// JSONL ops-event log (alert fired/cleared, status transitions), and a
// one-screen summary appended to every flight-recorder dump.
//
// Threading model: the sampling ticker runs on the Monitor's own goroutine
// and never touches the comm layer. All layer traffic happens in Pump,
// which the layer-owning goroutine calls from its loop (abelian's
// RecordRound, serve's coordinator/worker loops) per the AsyncLayer
// single-driver contract; Pump rate-limits itself, so calling it every
// iteration is free.
package health

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// Status is a rank's (or, on rank 0, the cluster's) health judgment.
type Status int

const (
	StatusOK        Status = iota // no active alerts
	StatusDegraded                // at least one warn-severity alert active
	StatusUnhealthy               // at least one critical-severity alert active
)

func (s Status) String() string {
	switch s {
	case StatusDegraded:
		return "DEGRADED"
	case StatusUnhealthy:
		return "UNHEALTHY"
	default:
		return "OK"
	}
}

// MarshalJSON renders the status as its string form.
func (s Status) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON accepts the string form (digest decoding).
func (s *Status) UnmarshalJSON(b []byte) error {
	switch strings.Trim(string(b), `"`) {
	case "DEGRADED":
		*s = StatusDegraded
	case "UNHEALTHY":
		*s = StatusUnhealthy
	default:
		*s = StatusOK
	}
	return nil
}

// Alert severities.
const (
	SevWarn     = "warn"     // → DEGRADED
	SevCritical = "critical" // → UNHEALTHY
)

// Alert is one active (or digest-carried) health judgment.
type Alert struct {
	Name     string  `json:"name"`     // detector, e.g. "progress_stall"
	Rank     int     `json:"rank"`     // rank the alert is about
	Shard    int     `json:"shard"`    // progress shard, -1 when not shard-scoped
	Severity string  `json:"severity"` // SevWarn | SevCritical
	Detail   string  `json:"detail"`   // human-readable, names rank and shard
	Value    float64 `json:"value"`    // the measurement that tripped it
	SinceNs  int64   `json:"since_ns"` // UnixNano of the episode start
}

// key identifies an alert episode for hysteresis latching.
func (a Alert) key() string {
	return fmt.Sprintf("%s/r%d/s%d", a.Name, a.Rank, a.Shard)
}

// SLO tunes the detectors. Zero values select defaults chosen so a healthy
// lossy-UDP soak (the CI configuration: 4 ranks, 5% loss) stays at zero
// latched alerts, while a wedged progress shard or a genuinely burning
// serving budget trips within a few ticks.
type SLO struct {
	// ServeP99 is the serving latency budget evaluated over each window's
	// delta histogram (default 2s — far above a lossy tail, squarely below
	// a hung query).
	ServeP99 time.Duration
	// ShedFraction alerts when shed/(ok+shed+error) over a window exceeds
	// it (default 0.5: most admission decisions bouncing).
	ShedFraction float64
	// MinSamples gates both serving detectors: windows with fewer admitted
	// queries are skipped (default 50).
	MinSamples int64
	// SkewFactor alerts when the worst rank's barrier-wait share of a
	// window exceeds SkewFraction AND is SkewFactor× the rank mean
	// (default 3).
	SkewFactor float64
	// SkewFraction is the absolute significance floor for the skew
	// detector: the worst rank must spend at least this fraction of the
	// window waiting at barriers (default 0.5).
	SkewFraction float64
	// EnterTicks consecutive bad evaluations latch an alert (default 2);
	// ClearTicks consecutive good ones clear it (default 5).
	EnterTicks, ClearTicks int
	// MissedBeats heartbeat intervals without a digest from a peer flip it
	// to rank_stuck (default 3). Only evaluated while rank 0's own Pump is
	// live, so idle phases (no loop driving the layer) never false-alarm.
	MissedBeats int
}

func (s *SLO) fill() {
	if s.ServeP99 <= 0 {
		s.ServeP99 = 2 * time.Second
	}
	if s.ShedFraction <= 0 {
		s.ShedFraction = 0.5
	}
	if s.MinSamples <= 0 {
		s.MinSamples = 50
	}
	if s.SkewFactor <= 0 {
		s.SkewFactor = 3
	}
	if s.SkewFraction <= 0 {
		s.SkewFraction = 0.5
	}
	if s.EnterTicks <= 0 {
		s.EnterTicks = 2
	}
	if s.ClearTicks <= 0 {
		s.ClearTicks = 5
	}
	if s.MissedBeats <= 0 {
		s.MissedBeats = 3
	}
}

// Options configures a Monitor.
type Options struct {
	Rank, Ranks int
	// Interval is the sampling tick (default 1s). Heartbeats ride the same
	// period.
	Interval time.Duration
	// Window is the ring capacity per series in points (default 120 — two
	// minutes of history at the default tick).
	Window int
	// MaxSeries bounds distinct series; beyond it new signals are counted
	// as dropped, not stored (default 256).
	MaxSeries int
	// Reg is the registry to sample. A nil or disabled registry yields a
	// monitor that only tracks NoteRound/heartbeat state.
	Reg *telemetry.Registry
	// Tracer, when set, gets the one-screen Summary appended to its flight
	// dumps (SetDumpExtra).
	Tracer *tracing.Tracer
	// OpsLogPath, when non-empty, appends structured JSONL ops events
	// (rank 0 is the natural place: it sees cluster-wide transitions).
	OpsLogPath string
	SLO        SLO
}

func (o *Options) fill() {
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Window <= 0 {
		o.Window = 120
	}
	if o.MaxSeries <= 0 {
		o.MaxSeries = 256
	}
	o.SLO.fill()
}

// Monitor is one rank's health monitor. All exported methods are safe on a
// nil receiver (no-ops / zero values), so wiring can be unconditional.
type Monitor struct {
	opt  Options
	stop chan struct{}
	done chan struct{}

	started   atomic.Bool
	closeOnce sync.Once

	// BSP round signal fed by abelian.Runtime.RecordRound via NoteRound.
	rounds    atomic.Int64
	barrierNs atomic.Int64

	// lastPumpNs gates the cluster detectors: missed-heartbeat judgments
	// are only valid while something is driving the layer.
	lastPumpNs atomic.Int64

	mu            sync.Mutex
	series        map[string]*Series
	seriesDropped int64
	prev          *telemetry.Snapshot
	prevAt        time.Time
	tick          int64
	alerts        map[string]*alertState
	firedTotal    int64
	status        Status
	det           detectState
	peers         map[int]*peerState // rank 0: latest digest per peer rank
	seenRemote    map[string]Alert   // rank 0: remote alert episodes observed

	// Heartbeat state owned by the layer goroutine (Pump); never touched
	// by the ticker.
	hb pumpState

	// alertHook (func(Alert)) and pumpHook (func()) let the incident
	// recorder observe alert latches and ride the existing Pump call sites
	// in abelian/serve without new wiring there. Hooks fire outside mu.
	alertHook atomic.Value
	pumpHook  atomic.Value

	// pendingFired collects alerts latched under mu this tick; sample()
	// fires them to the alert hook after unlock so the hook may call back
	// into the monitor.
	pendingFired []Alert

	ops *OpsLog
}

// SetAlertHook registers fn to be called (outside the monitor's lock) each
// time an alert episode latches — locally or, on rank 0, via a peer digest.
// One hook; nil clears it. The incident recorder uses this as its trigger.
func (m *Monitor) SetAlertHook(fn func(Alert)) {
	if m == nil {
		return
	}
	m.alertHook.Store(fn)
}

// SetPumpHook registers fn to be called at the top of every Pump, on the
// layer-owning goroutine. One hook; nil clears it. The incident recorder
// rides this to drive its own reserved-tag traffic through the call sites
// that already pump the monitor.
func (m *Monitor) SetPumpHook(fn func()) {
	if m == nil {
		return
	}
	m.pumpHook.Store(fn)
}

func (m *Monitor) fireAlertHook(alerts []Alert) {
	if len(alerts) == 0 {
		return
	}
	hook, _ := m.alertHook.Load().(func(Alert))
	if hook == nil {
		return
	}
	for _, a := range alerts {
		hook(a)
	}
}

// OpsEvent appends one structured event to the monitor's ops log (nil-safe,
// no-op without a configured log). The incident recorder announces bundle
// writes through it so captures land in the same durable JSONL stream as
// the alerts that triggered them.
func (m *Monitor) OpsEvent(kind string, fields map[string]any) {
	if m == nil {
		return
	}
	m.ops.Event(kind, fields)
}

// New builds a monitor. Call Start to begin sampling and Close to stop.
func New(opt Options) *Monitor {
	opt.fill()
	m := &Monitor{
		opt:        opt,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		series:     map[string]*Series{},
		alerts:     map[string]*alertState{},
		peers:      map[int]*peerState{},
		seenRemote: map[string]Alert{},
	}
	if opt.OpsLogPath != "" {
		ops, err := OpenOpsLog(opt.OpsLogPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "health: ops log: %v\n", err)
		} else {
			m.ops = ops
		}
	}
	return m
}

// Start begins the sampling ticker and registers the flight-dump summary.
// Second and later calls are no-ops.
func (m *Monitor) Start() {
	if m == nil || !m.started.CompareAndSwap(false, true) {
		return
	}
	if m.opt.Tracer != nil {
		m.opt.Tracer.SetDumpExtra(m.Summary)
	}
	m.ops.Event("monitor_start", map[string]any{
		"rank": m.opt.Rank, "ranks": m.opt.Ranks,
		"interval_ms": m.opt.Interval.Milliseconds(),
	})
	go m.run()
}

// Close stops the ticker, flushes the ops log, and detaches from the
// tracer. Call it before tearing down the comm layer — a stopped progress
// loop is indistinguishable from a wedged one.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	m.closeOnce.Do(func() {
		close(m.stop)
		if m.started.Load() {
			<-m.done
		}
		if m.opt.Tracer != nil {
			m.opt.Tracer.SetDumpExtra(nil)
		}
		m.mu.Lock()
		st, fired := m.status, m.firedTotal
		m.mu.Unlock()
		m.ops.Event("monitor_stop", map[string]any{
			"rank": m.opt.Rank, "status": st.String(), "fired_total": fired,
		})
		m.ops.Close()
	})
}

// NoteRound accounts one completed BSP round and its barrier wait — the
// superstep straggler signal. Safe from the round-driving goroutine.
func (m *Monitor) NoteRound(barrier time.Duration) {
	if m == nil {
		return
	}
	m.rounds.Add(1)
	m.barrierNs.Add(barrier.Nanoseconds())
}

// Status returns the current judgment: on rank 0 the cluster-wide one,
// elsewhere the local one.
func (m *Monitor) Status() Status {
	if m == nil {
		return StatusOK
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked(time.Now())
}

// FiredTotal returns how many alert episodes have latched since start
// (local ones, plus — on rank 0 — remote episodes observed via digests).
func (m *Monitor) FiredTotal() int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.firedTotal
}

// ActiveAlerts returns the currently active alerts: local ones plus, on
// rank 0, the active alerts carried by the latest peer digests.
func (m *Monitor) ActiveAlerts() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.activeAlertsLocked()
}

func (m *Monitor) activeAlertsLocked() []Alert {
	var out []Alert
	for _, st := range m.alerts {
		if st.active {
			out = append(out, st.alert)
		}
	}
	for _, p := range m.peers {
		out = append(out, p.d.Alerts...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// statusLocked computes the judgment from active alerts (and, on rank 0,
// peer digest statuses).
func (m *Monitor) statusLocked(now time.Time) Status {
	st := StatusOK
	worse := func(s Status) {
		if s > st {
			st = s
		}
	}
	for _, a := range m.alerts {
		if !a.active {
			continue
		}
		if a.alert.Severity == SevCritical {
			worse(StatusUnhealthy)
		} else {
			worse(StatusDegraded)
		}
	}
	for _, p := range m.peers {
		// A stale digest's status still stands until rank_stuck replaces it.
		worse(p.d.Status)
	}
	return st
}

// run is the sampling loop.
func (m *Monitor) run() {
	defer close(m.done)
	t := time.NewTicker(m.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.sample(now)
		}
	}
}

// sample takes one tick: snapshot the registry, derive series, run the
// detectors, update status, emit ops events on transitions.
func (m *Monitor) sample(now time.Time) {
	var snap *telemetry.Snapshot
	if m.opt.Reg.Enabled() {
		snap = m.opt.Reg.Snapshot()
	}
	m.mu.Lock()
	m.tick++
	prevStatus := m.statusLocked(now)
	dt := now.Sub(m.prevAt).Seconds()
	if m.prev != nil && snap != nil && dt > 0 {
		m.deriveSeries(now, snap, dt)
		m.detectLocal(now, snap, dt)
	}
	// BSP signal series (rates even when the registry is dark).
	m.recordSeries(now, "health:rounds_total", float64(m.rounds.Load()))
	if m.opt.Rank == 0 {
		m.detectCluster(now)
	}
	m.prev, m.prevAt = snap, now
	newStatus := m.statusLocked(now)
	fired := m.pendingFired
	m.pendingFired = nil
	m.mu.Unlock()
	if newStatus != prevStatus {
		m.ops.Event("status_changed", map[string]any{
			"rank": m.opt.Rank, "from": prevStatus.String(), "to": newStatus.String(),
		})
	}
	m.fireAlertHook(fired)
}

// deriveSeries folds one snapshot delta into the ring-buffer series:
// counters become rates, gauges levels, and latency histograms windowed
// p50/p99 trajectories plus an observation rate.
func (m *Monitor) deriveSeries(now time.Time, snap *telemetry.Snapshot, dt float64) {
	t := now.UnixNano()
	for name, v := range snap.Counters {
		d := v - m.prev.Counters[name]
		if d < 0 {
			d = 0 // a restarted component; clamp rather than plot negative
		}
		m.recordSeries(t, name+":rate", float64(d)/dt)
	}
	for name, g := range snap.Gauges {
		m.recordSeries(t, name, float64(g.Value))
	}
	for name, h := range snap.Hists {
		w := deltaHist(h, m.prev.Hists[name])
		m.recordSeries(t, name+":rate", float64(w.Count)/dt)
		if w.Count > 0 {
			m.recordSeries(t, name+":p50", float64(w.Quantile(0.50)))
			m.recordSeries(t, name+":p99", float64(w.Quantile(0.99)))
		}
	}
}

// recordSeries appends one point, creating the series if the cap allows.
// Accepts either a UnixNano int64 or a time.Time via the caller.
func (m *Monitor) recordSeries(t any, name string, v float64) {
	var ts int64
	switch x := t.(type) {
	case int64:
		ts = x
	case time.Time:
		ts = x.UnixNano()
	}
	s, ok := m.series[name]
	if !ok {
		if len(m.series) >= m.opt.MaxSeries {
			m.seriesDropped++
			return
		}
		s = newSeries(m.opt.Window)
		m.series[name] = s
	}
	s.add(ts, v)
}

// deltaHist subtracts prev from cur per bucket (clamped at zero), yielding
// the window's own distribution.
func deltaHist(cur, prev telemetry.HistSnap) telemetry.HistSnap {
	out := telemetry.HistSnap{Buckets: make([]int64, len(cur.Buckets))}
	for i, n := range cur.Buckets {
		d := n
		if i < len(prev.Buckets) {
			d -= prev.Buckets[i]
		}
		if d > 0 {
			out.Buckets[i] = d
			out.Count += d
		}
	}
	out.Sum = cur.Sum - prev.Sum
	return out
}

// Summary writes the one-screen health summary the flight recorder appends
// to every dump: status, active alerts, worst-rank skew, top rates.
func (m *Monitor) Summary(w io.Writer) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	st := m.statusLocked(now)
	alerts := m.activeAlertsLocked()
	fmt.Fprintf(w, "=== health: rank %d status=%s active_alerts=%d fired_total=%d rounds=%d ===\n",
		m.opt.Rank, st, len(alerts), m.firedTotal, m.rounds.Load())
	for _, a := range alerts {
		fmt.Fprintf(w, "  ALERT [%s] %s rank=%d shard=%d value=%.3g: %s\n",
			a.Severity, a.Name, a.Rank, a.Shard, a.Value, a.Detail)
	}
	if worst, skew := m.worstSkewLocked(); worst >= 0 {
		fmt.Fprintf(w, "  worst superstep skew: rank %d at %.2fx the mean barrier wait\n", worst, skew)
	}
	for _, r := range m.topRatesLocked(5) {
		fmt.Fprintf(w, "  %-60s %12.1f/s\n", r.Name, r.PerSec)
	}
}

// Rate is one name → events/s entry for the view's top-rates table.
type Rate struct {
	Name   string  `json:"name"`
	PerSec float64 `json:"per_sec"`
}

// topRatesLocked returns the n fastest counter-rate series by their latest
// sample.
func (m *Monitor) topRatesLocked(n int) []Rate {
	var out []Rate
	for name, s := range m.series {
		if !strings.HasSuffix(name, ":rate") {
			continue
		}
		if p, ok := s.Last(); ok && p.V > 0 {
			out = append(out, Rate{Name: strings.TrimSuffix(name, ":rate"), PerSec: p.V})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PerSec != out[j].PerSec {
			return out[i].PerSec > out[j].PerSec
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
