package health

import (
	"fmt"
	"strings"
	"time"

	"lcigraph/internal/telemetry"
)

// Detector names (Alert.Name values).
const (
	AlertProgressStall  = "progress_stall"  // a progress shard stopped polling
	AlertTransportStall = "transport_stall" // sends stuck in flow-control for consecutive ticks
	AlertSLOLatency     = "slo_latency"     // serving windowed p99 over budget
	AlertSLOShed        = "slo_shed"        // admission shedding most queries
	AlertRankStuck      = "rank_stuck"      // peer missed MissedBeats heartbeats
	AlertSuperstepSkew  = "superstep_skew"  // one rank waits sloSkewFactor× the mean at barriers
)

// detectState is the detectors' cross-tick memory (guarded by Monitor.mu).
type detectState struct {
	pollPrev   map[int]int64   // per-shard cumulative polls at the last tick
	pollRate   map[int]float64 // per-shard polls/s over the last window
	stallTicks int             // consecutive ticks with transport stalls

	// Rank 0 skew tracking: last cumulative (rounds, barrierNs) per rank and
	// when it was read, so each cluster tick scores the freshest window.
	skewPrev map[int]rankSample
	skewAt   time.Time
	skewRank int     // worst rank last tick (-1 when no judgment)
	skewVal  float64 // its barrier wait as a multiple of the rank mean
}

type rankSample struct {
	rounds    int64
	barrierNs int64
}

// alertState is one alert episode's hysteresis latch: EnterTicks consecutive
// bad evaluations activate it (counted once in firedTotal), ClearTicks
// consecutive good ones deactivate it. Flapping inside those bands neither
// re-fires nor clears — "latched once per episode".
type alertState struct {
	alert  Alert
	active bool
	enter  int
	clear  int
}

// judgeLocked advances one alert's hysteresis with this tick's evaluation.
func (m *Monitor) judgeLocked(now time.Time, a Alert, bad bool) {
	key := a.key()
	st, ok := m.alerts[key]
	if !ok {
		if !bad {
			return
		}
		st = &alertState{}
		m.alerts[key] = st
	}
	if bad {
		st.clear = 0
		if st.active {
			// Keep the measurement fresh while the episode runs.
			st.alert.Detail, st.alert.Value = a.Detail, a.Value
			return
		}
		st.enter++
		if st.enter >= sloEnterTicks {
			a.SinceNs = now.UnixNano()
			st.alert = a
			st.active = true
			st.enter = 0
			m.firedTotal++
			m.pendingFired = append(m.pendingFired, a)
			m.ops.Event("alert_fired", opsAlertFields(a))
		}
		return
	}
	st.enter = 0
	if !st.active {
		delete(m.alerts, key)
		return
	}
	st.clear++
	if st.clear >= sloClearTicks {
		st.active = false
		st.clear = 0
		m.ops.Event("alert_cleared", opsAlertFields(st.alert))
		delete(m.alerts, key)
	}
}

func opsAlertFields(a Alert) map[string]any {
	return map[string]any{
		"name": a.Name, "alert_rank": a.Rank, "shard": a.Shard,
		"severity": a.Severity, "detail": a.Detail, "value": a.Value,
	}
}

// detectLocal runs the single-rank detectors over one snapshot delta.
// Caller holds m.mu; dt is the window in seconds.
func (m *Monitor) detectLocal(now time.Time, snap *telemetry.Snapshot, dt float64) {
	if m.det.pollPrev == nil {
		m.det.pollPrev = map[int]int64{}
		m.det.pollRate = map[int]float64{}
		m.det.skewRank = -1
	}
	m.detectProgress(now, snap, dt)
	m.detectTransport(now, snap)
	m.detectServeSLO(now, snap)
}

// detectProgress scores each progress shard: a shard that has polled before
// and advances by zero across a whole tick is wedged — an idle Serve loop
// still polls at least once per backstop (a server parked on a doorbell
// wakes after about 1 ms and publishes its tallies before it parks again;
// one that backs off sleeps about 1 ms between polls), so zero delta can
// only mean the goroutine is stuck (precisely what -inject-stall fabricates
// for CI).
func (m *Monitor) detectProgress(now time.Time, snap *telemetry.Snapshot, dt float64) {
	cur := map[int]int64{}
	for name, v := range snap.Counters {
		base, labels := splitMetric(name)
		if base != "lci_core_progress_polls_total" {
			continue
		}
		cur[labelShard(labels)] += v
	}
	for shard, polls := range cur {
		prev, seen := m.det.pollPrev[shard]
		m.det.pollPrev[shard] = polls
		d := polls - prev
		if d < 0 {
			d = 0
		}
		m.det.pollRate[shard] = float64(d) / dt
		// Judge only shards that have ever polled: a shard that never ran
		// (e.g. telemetry registered before Serve starts) is not stuck yet.
		if !seen || prev == 0 {
			continue
		}
		m.judgeLocked(now, Alert{
			Name: AlertProgressStall, Rank: m.opt.Rank, Shard: shard,
			Severity: SevWarn, Value: float64(d),
			Detail: fmt.Sprintf("rank %d progress shard %d polled 0 times in %.1fs — progress goroutine wedged",
				m.opt.Rank, shard, dt),
		}, d == 0)
	}
}

// detectTransport watches lci_net_stalls_total: stall events on isolated
// ticks are normal back-pressure, but stalls on every tick of a window mean
// sends are pinned behind flow control.
func (m *Monitor) detectTransport(now time.Time, snap *telemetry.Snapshot) {
	d := snap.Counter("lci_net_stalls_total") - m.prev.Counter("lci_net_stalls_total")
	if d > 0 {
		m.det.stallTicks++
	} else {
		m.det.stallTicks = 0
	}
	bad := m.det.stallTicks >= 3
	m.judgeLocked(now, Alert{
		Name: AlertTransportStall, Rank: m.opt.Rank, Shard: -1,
		Severity: SevWarn, Value: float64(d),
		Detail: fmt.Sprintf("rank %d transport stalled %d consecutive ticks (%d stall events last tick)",
			m.opt.Rank, m.det.stallTicks, d),
	}, bad)
}

// detectServeSLO evaluates the serving budget over the window's own traffic:
// the delta histogram's p99 against sloServeP99, and the shed fraction of
// admission decisions. Both gate on MinSamples so idle windows never judge.
func (m *Monitor) detectServeSLO(now time.Time, snap *telemetry.Snapshot) {
	// Windowed p99 across all ops.
	win := telemetry.HistSnap{Buckets: make([]int64, telemetry.NumBuckets)}
	for name, h := range snap.Hists {
		if base, _ := splitMetric(name); base != "lci_serve_latency_ns" {
			continue
		}
		d := deltaHist(h, m.prev.Hists[name])
		for i, n := range d.Buckets {
			win.Buckets[i] += n
		}
		win.Count += d.Count
		win.Sum += d.Sum
	}
	p99 := time.Duration(win.Quantile(0.99))
	m.judgeLocked(now, Alert{
		Name: AlertSLOLatency, Rank: m.opt.Rank, Shard: -1,
		Severity: SevWarn, Value: float64(p99.Nanoseconds()),
		Detail: fmt.Sprintf("rank %d serving p99 %.0fms over %d queries exceeds the %.0fms budget",
			m.opt.Rank, float64(p99)/1e6, win.Count, float64(sloServeP99)/1e6),
	}, win.Count >= sloMinSamples && p99 > sloServeP99)

	// Shed fraction of all admission decisions this window.
	var shed, total int64
	for name, v := range snap.Counters {
		base, labels := splitMetric(name)
		if base != "lci_serve_queries_total" {
			continue
		}
		d := v - m.prev.Counters[name]
		if d < 0 {
			continue
		}
		total += d
		if labels["status"] == "shed" {
			shed += d
		}
	}
	frac := 0.0
	if total > 0 {
		frac = float64(shed) / float64(total)
	}
	m.judgeLocked(now, Alert{
		Name: AlertSLOShed, Rank: m.opt.Rank, Shard: -1,
		Severity: SevWarn, Value: frac,
		Detail: fmt.Sprintf("rank %d shed %.0f%% of %d queries this window (budget %.0f%%)",
			m.opt.Rank, frac*100, total, sloShedFraction*100),
	}, total >= sloMinSamples && frac > sloShedFraction)
}

// detectCluster runs rank 0's cluster-wide detectors over the peer digests:
// missed heartbeats and superstep skew. Judgments gate on rank 0's own Pump
// being live — when nothing drives the comm layer (between phases, during
// teardown) silence is expected, not an outage.
func (m *Monitor) detectCluster(now time.Time) {
	if m.det.skewPrev == nil {
		m.det.skewPrev = map[int]rankSample{}
		m.det.skewRank = -1
	}
	beat := m.opt.Interval
	lastPump := m.lastPumpNs.Load()
	pumpLive := lastPump != 0 && now.UnixNano()-lastPump < 2*beat.Nanoseconds()
	firstPump := m.hb.firstPumpNs.Load()

	// Missed heartbeats → rank_stuck (critical).
	for r := 1; r < m.opt.Ranks; r++ {
		p := m.peers[r]
		var age time.Duration
		switch {
		case p != nil:
			age = now.Sub(p.recvAt)
		case firstPump != 0:
			// Never heard from r: age against the start of pumping, with one
			// extra beat of slack for the peer's own first-send delay.
			age = time.Duration(now.UnixNano()-firstPump) - beat
		default:
			continue // pumping never started; nothing to judge
		}
		bad := pumpLive && age > time.Duration(sloMissedBeats)*beat
		m.judgeLocked(now, Alert{
			Name: AlertRankStuck, Rank: r, Shard: -1,
			Severity: SevCritical, Value: age.Seconds(),
			Detail: fmt.Sprintf("rank %d missed %d heartbeats (last digest %.1fs ago)",
				r, sloMissedBeats, age.Seconds()),
		}, bad)
	}

	// Superstep skew: per-rank barrier-wait deltas over the freshest window.
	window := now.Sub(m.det.skewAt)
	m.det.skewAt = now
	cur := map[int]rankSample{0: {m.rounds.Load(), m.barrierNs.Load()}}
	for r, p := range m.peers {
		if now.Sub(p.recvAt) < 2*beat {
			cur[r] = rankSample{p.d.Rounds, p.d.BarrierNs}
		}
	}
	m.det.skewRank, m.det.skewVal = -1, 0
	if len(cur) == m.opt.Ranks && m.opt.Ranks >= 2 && window > 0 {
		var sum, worst, roundsAdv int64
		worstRank := -1
		complete := true
		for r := 0; r < m.opt.Ranks; r++ {
			c, ok := cur[r]
			prev, okPrev := m.det.skewPrev[r]
			if !ok || !okPrev {
				complete = false
				break
			}
			d := c.barrierNs - prev.barrierNs
			if d < 0 {
				d = 0
			}
			sum += d
			roundsAdv += c.rounds - prev.rounds
			if d > worst {
				worst, worstRank = d, r
			}
		}
		if complete && roundsAdv > 0 && sum > 0 {
			mean := float64(sum) / float64(m.opt.Ranks)
			skew := float64(worst) / mean
			m.det.skewRank, m.det.skewVal = worstRank, skew
			bad := skew > sloSkewFactor &&
				float64(worst) > sloSkewFraction*float64(window.Nanoseconds())
			m.judgeLocked(now, Alert{
				Name: AlertSuperstepSkew, Rank: worstRank, Shard: -1,
				Severity: SevWarn, Value: skew,
				Detail: fmt.Sprintf("rank %d waited %.2fx the mean barrier time (%.0fms of a %.1fs window) — straggler",
					worstRank, skew, float64(worst)/1e6, window.Seconds()),
			}, bad)
		}
	}
	for r, c := range cur {
		m.det.skewPrev[r] = c
	}
}

// worstSkewLocked reports the last skew judgment for the flight-dump
// summary (-1 when none).
func (m *Monitor) worstSkewLocked() (rank int, skew float64) {
	if m.det.skewRank < 0 || m.det.skewVal <= 1 {
		return -1, 0
	}
	return m.det.skewRank, m.det.skewVal
}

// splitMetric splits a Prometheus-style name `base{k="v",...}` into base and
// labels. Names without labels return a nil map.
func splitMetric(name string) (string, map[string]string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	labels := map[string]string{}
	for _, pair := range strings.Split(name[i+1:len(name)-1], ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		labels[strings.TrimSpace(k)] = strings.Trim(strings.TrimSpace(v), `"`)
	}
	return name[:i], labels
}

// labelShard extracts the shard label (0 when unlabeled — single-shard
// endpoints omit it so the default configuration's names stay stable).
func labelShard(labels map[string]string) int {
	s, ok := labels["shard"]
	if !ok {
		return 0
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
