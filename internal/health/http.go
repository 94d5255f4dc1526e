package health

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"
)

// RankHealth is one row of the cluster view: rank 0's own state plus one
// row per peer digest. lci-ops top renders these directly.
type RankHealth struct {
	Rank      int       `json:"rank"`
	Status    Status    `json:"status"`
	AgeMs     int64     `json:"age_ms"` // digest age (0 for the local rank)
	Rounds    int64     `json:"rounds"`
	BarrierMs int64     `json:"barrier_ms"` // cumulative barrier wait
	Skew      float64   `json:"skew"`       // barrier wait vs rank mean (rank 0's judgment)
	PollRate  []float64 `json:"poll_rate"`  // polls/s per progress shard
	Alerts    []Alert   `json:"alerts,omitempty"`
}

// View is the judgment payload of /debug/health.json: everything except the
// raw series.
type View struct {
	Rank          int          `json:"rank"`
	Ranks         int          `json:"ranks"`
	Status        Status       `json:"status"`
	Tick          int64        `json:"tick"`
	NowNs         int64        `json:"now_ns"`
	IntervalMs    int64        `json:"interval_ms"`
	FiredTotal    int64        `json:"fired_total"`
	Alerts        []Alert      `json:"alerts"`
	RanksView     []RankHealth `json:"ranks_view"`
	TopRates      []Rate       `json:"top_rates"`
	SeriesDropped int64        `json:"series_dropped"`
}

// View assembles the current judgment payload.
func (m *Monitor) View() View {
	if m == nil {
		return View{Status: StatusOK}
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	v := View{
		Rank:          m.opt.Rank,
		Ranks:         m.opt.Ranks,
		Status:        m.statusLocked(now),
		Tick:          m.tick,
		NowNs:         now.UnixNano(),
		IntervalMs:    m.opt.Interval.Milliseconds(),
		FiredTotal:    m.firedTotal,
		Alerts:        m.activeAlertsLocked(),
		TopRates:      m.topRatesLocked(8),
		SeriesDropped: m.seriesDropped,
	}
	if v.Alerts == nil {
		v.Alerts = []Alert{}
	}

	// Local row.
	self := RankHealth{
		Rank:      m.opt.Rank,
		Rounds:    m.rounds.Load(),
		BarrierMs: m.barrierNs.Load() / 1e6,
	}
	for _, st := range m.alerts {
		if st.active {
			self.Alerts = append(self.Alerts, st.alert)
		}
	}
	self.Status = StatusOK
	for _, a := range self.Alerts {
		if a.Severity == SevCritical {
			self.Status = StatusUnhealthy
		} else if self.Status == StatusOK {
			self.Status = StatusDegraded
		}
	}
	if n := len(m.det.pollRate); n > 0 {
		max := 0
		for shard := range m.det.pollRate {
			if shard > max {
				max = shard
			}
		}
		self.PollRate = make([]float64, max+1)
		for shard, r := range m.det.pollRate {
			self.PollRate[shard] = r
		}
	}
	if m.det.skewRank == m.opt.Rank {
		self.Skew = m.det.skewVal
	}
	v.RanksView = append(v.RanksView, self)

	// Peer rows (rank 0 only — peers hold no digests).
	for r, p := range m.peers {
		row := RankHealth{
			Rank:      r,
			Status:    p.d.Status,
			AgeMs:     now.Sub(p.recvAt).Milliseconds(),
			Rounds:    p.d.Rounds,
			BarrierMs: p.d.BarrierNs / 1e6,
			Alerts:    p.d.Alerts,
		}
		// Poll rates from the digest-to-digest deltas.
		if dt := p.recvAt.Sub(p.prevRecvAt).Seconds(); dt > 0 && len(p.prev.PollTotal) > 0 {
			row.PollRate = make([]float64, len(p.d.PollTotal))
			for i, cur := range p.d.PollTotal {
				if i < len(p.prev.PollTotal) && cur >= p.prev.PollTotal[i] {
					row.PollRate[i] = float64(cur-p.prev.PollTotal[i]) / dt
				}
			}
		}
		if m.det.skewRank == r {
			row.Skew = m.det.skewVal
		}
		// rank_stuck is rank 0's judgment about the peer; surface it on the
		// peer's row too.
		for _, st := range m.alerts {
			if st.active && st.alert.Name == AlertRankStuck && st.alert.Rank == r {
				row.Status = StatusUnhealthy
				row.Alerts = append(row.Alerts, st.alert)
			}
		}
		v.RanksView = append(v.RanksView, row)
	}
	sort.Slice(v.RanksView, func(i, j int) bool { return v.RanksView[i].Rank < v.RanksView[j].Rank })
	return v
}

// healthzPayload is the machine-readable /healthz body.
type healthzPayload struct {
	Status     string  `json:"status"`
	Rank       int     `json:"rank"`
	Alerts     []Alert `json:"alerts"`
	FiredTotal int64   `json:"fired_total"`
}

// ServeHealthz is the /healthz handler: HTTP 200 while the judgment is OK,
// 503 for DEGRADED or UNHEALTHY, with a small JSON body either way — load
// balancers read the code, operators read the body.
func (m *Monitor) ServeHealthz(w http.ResponseWriter, _ *http.Request) {
	st := m.Status()
	alerts := m.ActiveAlerts()
	if alerts == nil {
		alerts = []Alert{}
	}
	w.Header().Set("Content-Type", "application/json")
	if st != StatusOK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(healthzPayload{
		Status: st.String(), Rank: m.rank(), Alerts: alerts, FiredTotal: m.FiredTotal(),
	})
}

func (m *Monitor) rank() int {
	if m == nil {
		return 0
	}
	return m.opt.Rank
}

// DebugPayload is the full /debug/health.json body: the judgment view,
// every ring-buffer time series, and links to the sibling debug endpoints
// an operator reaches next. The incident recorder embeds the identical
// payload in every evidence set, so a bundle's health.json and the live
// endpoint read the same.
type DebugPayload struct {
	View   View               `json:"view"`
	Series map[string][]Point `json:"series"`
	Links  map[string]string  `json:"links,omitempty"`
}

// DebugJSON assembles the payload ServeJSON writes.
func (m *Monitor) DebugJSON() DebugPayload {
	p := DebugPayload{
		View:   m.View(),
		Series: map[string][]Point{},
		Links: map[string]string{
			"stacks":           "/debug/stacks",
			"incident_capture": "/debug/incident/capture",
			"pprof":            "/debug/pprof/",
		},
	}
	if m != nil {
		m.mu.Lock()
		for name, s := range m.series {
			p.Series[name] = s.Points()
		}
		m.mu.Unlock()
	}
	return p
}

// ServeJSON is the /debug/health.json handler: the full view plus every
// time series, the payload lci-ops top polls.
func (m *Monitor) ServeJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m.DebugJSON())
}
