package health

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
)

// Digest is the compact per-rank heartbeat posted to rank 0 on
// cluster.HealthTag: enough for the cluster view (status, superstep
// progress, barrier-wait totals, per-shard poll totals, active alerts)
// without shipping whole snapshots. It rides the communication layer
// itself, so rank 0 keeps its view even when a peer's HTTP endpoint is
// unreachable — and a silent peer is itself the strongest signal
// (rank_stuck).
type Digest struct {
	Rank      int     `json:"rank"`
	Seq       int64   `json:"seq"`
	SentAtNs  int64   `json:"sent_at_ns"`
	Status    Status  `json:"status"`
	Rounds    int64   `json:"rounds"`
	BarrierNs int64   `json:"barrier_ns"`           // cumulative barrier wait
	PollTotal []int64 `json:"poll_total,omitempty"` // cumulative polls per progress shard
	Alerts    []Alert `json:"alerts,omitempty"`     // locally active alerts
}

// peerState is rank 0's record of one peer (guarded by Monitor.mu).
type peerState struct {
	d          Digest
	prev       Digest
	recvAt     time.Time
	prevRecvAt time.Time
	seen       map[string]bool // alert episodes active in d, by Alert.key
}

// pumpState is the heartbeat machinery owned by the layer-driving goroutine
// (the only one allowed to touch an AsyncLayer). The ticker goroutine reads
// none of it.
type pumpState struct {
	layer       comm.AsyncLayer
	lastSend    time.Time
	lastDrain   time.Time
	seq         int64
	firstPumpNs atomic.Int64
}

// Bind attaches the comm layer heartbeats travel over. Layers without
// reserved-tag messaging (or single-rank jobs) leave the monitor local-only;
// everything else still works.
func (m *Monitor) Bind(layer comm.Layer) {
	if m == nil || layer == nil {
		return
	}
	if al, ok := layer.(comm.AsyncLayer); ok {
		m.hb.layer = al
	}
}

// Pump advances the heartbeat protocol and must be called from the goroutine
// that owns the comm layer (abelian's round loop, serve's coordinator/worker
// loops). It rate-limits itself — one digest per Interval outbound, one
// drain per Interval/4 on rank 0 — so calling it every loop iteration is
// effectively free. It also stamps the pump-liveness clock that gates the
// cluster detectors: no Pump, no missed-heartbeat judgments.
func (m *Monitor) Pump() {
	if m == nil {
		return
	}
	if hook, _ := m.pumpHook.Load().(func()); hook != nil {
		hook()
	}
	now := time.Now()
	m.lastPumpNs.Store(now.UnixNano())
	m.hb.firstPumpNs.CompareAndSwap(0, now.UnixNano())
	if m.hb.layer == nil || m.opt.Ranks <= 1 {
		return
	}
	if m.opt.Rank == 0 {
		if now.Sub(m.hb.lastDrain) >= m.opt.Interval/4 {
			m.hb.lastDrain = now
			m.drainDigests(now)
		}
		return
	}
	if now.Sub(m.hb.lastSend) >= m.opt.Interval {
		m.hb.lastSend = now
		m.sendDigest(now)
	}
}

// sendDigest posts this rank's digest to rank 0.
func (m *Monitor) sendDigest(now time.Time) {
	m.hb.seq++
	d := Digest{Rank: m.opt.Rank, Seq: m.hb.seq, SentAtNs: now.UnixNano()}
	m.mu.Lock()
	d.Status = m.statusLocked(now)
	d.Rounds = m.rounds.Load()
	d.BarrierNs = m.barrierNs.Load()
	if n := len(m.det.pollPrev); n > 0 {
		max := 0
		for shard := range m.det.pollPrev {
			if shard > max {
				max = shard
			}
		}
		d.PollTotal = make([]int64, max+1)
		for shard, v := range m.det.pollPrev {
			d.PollTotal[shard] = v
		}
	}
	for _, st := range m.alerts {
		if st.active {
			d.Alerts = append(d.Alerts, st.alert)
		}
	}
	m.mu.Unlock()

	b, err := json.Marshal(d)
	if err != nil {
		fmt.Fprintf(os.Stderr, "health: digest marshal: %v\n", err)
		return
	}
	buf := m.hb.layer.AllocBuf(len(b))
	copy(buf, b)
	m.hb.layer.PostTag(0, cluster.HealthTag, buf)
}

// drainDigests pulls every pending digest off the health tag and folds it
// into rank 0's cluster view, logging and hooking the episodes it starts.
func (m *Monitor) drainDigests(now time.Time) {
	for {
		msg, ok := m.hb.layer.RecvTag(cluster.HealthTag)
		if !ok {
			return
		}
		fired := m.foldDigest(msg.Data, now)
		msg.Release()
		for _, a := range fired {
			m.ops.Event("alert_fired", opsAlertFields(a))
		}
		m.fireAlertHook(fired)
	}
}

// foldDigest decodes one peer's digest and folds it into the cluster view,
// returning the remote alert episodes it starts. The bytes come from the
// network, so anything that does not decode, or names no peer rank, is
// dropped. Episodes are tracked per sending peer, whatever rank an alert
// names: each one counts into firedTotal once, and an episode that drops out
// of its sender's next digest unlatches, so a recurrence counts again.
func (m *Monitor) foldDigest(data []byte, now time.Time) []Alert {
	var d Digest
	if json.Unmarshal(data, &d) != nil || d.Rank <= 0 || d.Rank >= m.opt.Ranks {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peers[d.Rank]
	if p == nil {
		p = &peerState{}
		m.peers[d.Rank] = p
	}
	if d.Seq <= p.d.Seq { // stale or duplicate delivery
		return nil
	}
	p.prev, p.prevRecvAt = p.d, p.recvAt
	p.d, p.recvAt = d, now
	var fired []Alert
	seen := make(map[string]bool, len(d.Alerts))
	for _, a := range d.Alerts {
		k := a.key()
		if !p.seen[k] && !seen[k] {
			m.firedTotal++
			fired = append(fired, a)
		}
		seen[k] = true
	}
	p.seen = seen
	return fired
}
