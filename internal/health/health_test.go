package health

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/fabric"
	"lcigraph/internal/telemetry"
)

func TestSeriesRing(t *testing.T) {
	s := newSeries(4)
	if _, ok := s.Last(); ok {
		t.Fatal("empty series has a last point")
	}
	for i := 1; i <= 6; i++ {
		s.add(int64(i), float64(i*10))
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	pts := s.Points()
	for i, want := range []int64{3, 4, 5, 6} {
		if pts[i].T != want {
			t.Fatalf("Points[%d].T = %d, want %d (oldest-first after wrap)", i, pts[i].T, want)
		}
	}
	if last, _ := s.Last(); last.V != 60 {
		t.Fatalf("Last = %v, want V=60", last)
	}
}

func TestSplitMetric(t *testing.T) {
	base, labels := splitMetric(`lci_core_progress_polls_total{state="busy",shard="3"}`)
	if base != "lci_core_progress_polls_total" || labels["state"] != "busy" || labels["shard"] != "3" {
		t.Fatalf("got base=%q labels=%v", base, labels)
	}
	if labelShard(labels) != 3 {
		t.Fatalf("labelShard = %d, want 3", labelShard(labels))
	}
	base, labels = splitMetric("lci_net_stalls_total")
	if base != "lci_net_stalls_total" || labels != nil {
		t.Fatalf("unlabeled name mishandled: base=%q labels=%v", base, labels)
	}
	if labelShard(labels) != 0 {
		t.Fatal("missing shard label must default to shard 0")
	}
}

// tickAt drives one manual sample at a controlled time (the ticker is not
// started in unit tests, so windows are exact).
func tickAt(m *Monitor, at time.Time) { m.sample(at) }

// TestProgressStallLatchesOncePerEpisode: a frozen poll counter must fire
// progress_stall after EnterTicks, hold FiredTotal at one while the stall
// persists, and clear after ClearTicks good ticks.
func TestProgressStallLatchesOncePerEpisode(t *testing.T) {
	reg := telemetry.NewEnabled(0)
	busy := reg.Counter(`lci_core_progress_polls_total{state="busy"}`)
	m := New(Options{Rank: 0, Ranks: 1, Reg: reg})
	defer m.Close()

	now := time.Unix(1000, 0)
	step := func(advance int64) {
		busy.Add(advance)
		now = now.Add(time.Second)
		tickAt(m, now)
	}
	step(1000) // baseline snapshot
	step(1000) // healthy delta
	if m.Status() != StatusOK {
		t.Fatalf("healthy status = %v", m.Status())
	}
	step(0) // enter 1
	if m.FiredTotal() != 0 {
		t.Fatal("alert fired before EnterTicks")
	}
	step(0) // enter 2 → latch
	if m.Status() != StatusDegraded || m.FiredTotal() != 1 {
		t.Fatalf("after stall: status=%v fired=%d, want DEGRADED/1", m.Status(), m.FiredTotal())
	}
	alerts := m.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].Name != AlertProgressStall || alerts[0].Shard != 0 {
		t.Fatalf("alerts = %+v", alerts)
	}
	if !strings.Contains(alerts[0].Detail, "rank 0") || !strings.Contains(alerts[0].Detail, "shard 0") {
		t.Fatalf("detail must name rank and shard: %q", alerts[0].Detail)
	}
	for i := 0; i < 5; i++ {
		step(0) // ongoing episode must not re-fire
	}
	if m.FiredTotal() != 1 {
		t.Fatalf("episode re-fired: FiredTotal = %d", m.FiredTotal())
	}
	for i := 0; i < m.opt.SLO.ClearTicks; i++ {
		step(1000)
	}
	if m.Status() != StatusOK || len(m.ActiveAlerts()) != 0 {
		t.Fatalf("after recovery: status=%v alerts=%v", m.Status(), m.ActiveAlerts())
	}
	if m.FiredTotal() != 1 {
		t.Fatalf("FiredTotal changed on clear: %d", m.FiredTotal())
	}
}

// TestProgressStallNamesTheStuckShard: with sharded counters, only the
// frozen shard alerts, and the alert carries its index.
func TestProgressStallNamesTheStuckShard(t *testing.T) {
	reg := telemetry.NewEnabled(0)
	s0 := reg.Counter(`lci_core_progress_polls_total{state="idle",shard="0"}`)
	s1 := reg.Counter(`lci_core_progress_polls_total{state="idle",shard="1"}`)
	m := New(Options{Rank: 2, Ranks: 4, Reg: reg})
	defer m.Close()

	now := time.Unix(1000, 0)
	step := func(d0, d1 int64) {
		s0.Add(d0)
		s1.Add(d1)
		now = now.Add(time.Second)
		tickAt(m, now)
	}
	step(500, 500)
	step(500, 500)
	step(500, 0)
	step(500, 0)
	alerts := m.ActiveAlerts()
	if len(alerts) != 1 || alerts[0].Shard != 1 || alerts[0].Rank != 2 {
		t.Fatalf("alerts = %+v, want one progress_stall for rank 2 shard 1", alerts)
	}
	if !strings.Contains(alerts[0].Detail, "shard 1") {
		t.Fatalf("detail must name the shard: %q", alerts[0].Detail)
	}
}

// TestServeSLODetectors: a window shedding most queries fires slo_shed; a
// window of multi-second latencies fires slo_latency; idle windows (below
// MinSamples) never judge.
func TestServeSLODetectors(t *testing.T) {
	reg := telemetry.NewEnabled(0)
	ok := reg.Counter(`lci_serve_queries_total{op="khop",status="ok"}`)
	shed := reg.Counter(`lci_serve_queries_total{op="khop",status="shed"}`)
	lat := reg.Histogram(`lci_serve_latency_ns{op="khop"}`)
	m := New(Options{Rank: 0, Ranks: 1, Reg: reg})
	defer m.Close()

	now := time.Unix(1000, 0)
	step := func() {
		now = now.Add(time.Second)
		tickAt(m, now)
	}
	step()
	// Below MinSamples: 10 queries all shed, all slow — must not judge.
	for i := 0; i < 10; i++ {
		shed.Inc()
		lat.Observe(int64(5 * time.Second))
	}
	step()
	step()
	step()
	if len(m.ActiveAlerts()) != 0 {
		t.Fatalf("idle-window judgment: %+v", m.ActiveAlerts())
	}
	// A real burn: 80 shed vs 20 ok, latencies ~4s.
	for i := 0; i < 2; i++ {
		for j := 0; j < 80; j++ {
			shed.Inc()
			lat.Observe(int64(4 * time.Second))
		}
		for j := 0; j < 20; j++ {
			ok.Inc()
			lat.Observe(int64(time.Millisecond))
		}
		step()
	}
	names := map[string]bool{}
	for _, a := range m.ActiveAlerts() {
		names[a.Name] = true
	}
	if !names[AlertSLOShed] || !names[AlertSLOLatency] {
		t.Fatalf("want slo_shed and slo_latency, got %+v", m.ActiveAlerts())
	}
}

// TestHealthzAndViewJSON: /healthz flips 200→503 with status, and
// /debug/health.json round-trips the view.
func TestHealthzAndViewJSON(t *testing.T) {
	reg := telemetry.NewEnabled(0)
	busy := reg.Counter(`lci_core_progress_polls_total{state="busy"}`)
	m := New(Options{Rank: 0, Ranks: 1, Reg: reg})
	defer m.Close()

	rec := httptest.NewRecorder()
	m.ServeHealthz(rec, nil)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"status":"OK"`) {
		t.Fatalf("healthy /healthz: code=%d body=%s", rec.Code, rec.Body.String())
	}

	now := time.Unix(1000, 0)
	step := func(d int64) {
		busy.Add(d)
		now = now.Add(time.Second)
		tickAt(m, now)
	}
	step(100)
	step(100)
	step(0)
	step(0) // latched

	rec = httptest.NewRecorder()
	m.ServeHealthz(rec, nil)
	if rec.Code != 503 {
		t.Fatalf("degraded /healthz code = %d, want 503", rec.Code)
	}

	rec = httptest.NewRecorder()
	m.ServeJSON(rec, nil)
	var payload struct {
		View   View               `json:"view"`
		Series map[string][]Point `json:"series"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("health.json decode: %v", err)
	}
	if payload.View.Status != StatusDegraded || len(payload.View.Alerts) != 1 {
		t.Fatalf("view = %+v", payload.View)
	}
	if len(payload.Series) == 0 {
		t.Fatal("no series in health.json")
	}
	if len(payload.View.RanksView) != 1 || payload.View.RanksView[0].Status != StatusDegraded {
		t.Fatalf("ranks_view = %+v", payload.View.RanksView)
	}
}

// TestSeriesCapAndWindow: distinct series are bounded by MaxSeries (extras
// counted as dropped) and each ring by Window.
func TestSeriesCapAndWindow(t *testing.T) {
	reg := telemetry.NewEnabled(0)
	for i := 0; i < 40; i++ {
		reg.Counter(strings.Repeat("x", 1) + "_" + string(rune('a'+i%26)) + "_" + string(rune('a'+i/26))).Inc()
	}
	m := New(Options{Rank: 0, Ranks: 1, Reg: reg, MaxSeries: 10, Window: 3})
	defer m.Close()
	now := time.Unix(1000, 0)
	for i := 0; i < 6; i++ {
		now = now.Add(time.Second)
		tickAt(m, now)
	}
	m.mu.Lock()
	nSeries, dropped := len(m.series), m.seriesDropped
	var maxLen int
	for _, s := range m.series {
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	m.mu.Unlock()
	if nSeries > 10 {
		t.Fatalf("series cap breached: %d > 10", nSeries)
	}
	if dropped == 0 {
		t.Fatal("overflow series not counted as dropped")
	}
	if maxLen > 3 {
		t.Fatalf("ring grew past Window: %d", maxLen)
	}
}

// TestHeartbeatRankStuck: two live monitors over real layers — rank 0's
// view gains the peer row from digests; when the peer stops pumping, rank 0
// flips UNHEALTHY with a rank_stuck alert naming it, within seconds.
func TestHeartbeatRankStuck(t *testing.T) {
	const p = 2
	fab := fabric.New(p, fabric.TestProfile())
	var layers [p]*comm.LCILayer
	var mons [p]*Monitor
	for r := 0; r < p; r++ {
		layers[r] = comm.NewLCILayer(fab.Endpoint(r), lci.Options{})
		mons[r] = New(Options{
			Rank: r, Ranks: p, Interval: 50 * time.Millisecond,
			Reg: telemetry.NewEnabled(r),
		})
		mons[r].Bind(layers[r])
		mons[r].Start()
	}
	stopPump := make([]chan struct{}, p)
	pumpDone := make([]chan struct{}, p)
	for r := 0; r < p; r++ {
		stopPump[r] = make(chan struct{})
		pumpDone[r] = make(chan struct{})
		go func(r int) {
			defer close(pumpDone[r])
			tk := time.NewTicker(5 * time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-stopPump[r]:
					return
				case <-tk.C:
					mons[r].Pump()
				}
			}
		}(r)
	}

	// Phase 1: digests flow; rank 0's view shows both ranks, status OK.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v := mons[0].View()
		if len(v.RanksView) == p {
			if v.Status != StatusOK {
				t.Fatalf("clean cluster status = %v (%+v)", v.Status, v.Alerts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer digest never arrived: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Phase 2: silence rank 1 → rank_stuck within MissedBeats + hysteresis.
	close(stopPump[1])
	<-pumpDone[1]
	deadline = time.Now().Add(5 * time.Second)
	for {
		if mons[0].Status() == StatusUnhealthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank_stuck never fired: %+v", mons[0].View())
		}
		time.Sleep(10 * time.Millisecond)
	}
	var stuck *Alert
	for _, a := range mons[0].ActiveAlerts() {
		if a.Name == AlertRankStuck {
			stuck = &a
			break
		}
	}
	if stuck == nil || stuck.Rank != 1 || stuck.Severity != SevCritical {
		t.Fatalf("rank_stuck alert = %+v", stuck)
	}
	if !strings.Contains(stuck.Detail, "rank 1") {
		t.Fatalf("detail must name the rank: %q", stuck.Detail)
	}

	close(stopPump[0])
	<-pumpDone[0]
	for r := 0; r < p; r++ {
		mons[r].Close()
	}
	layers[0].Stop()
	layers[1].Stop()
}

// TestNilMonitorSafe: every entry point must no-op on nil.
func TestNilMonitorSafe(t *testing.T) {
	var m *Monitor
	m.Start()
	m.Bind(nil)
	m.Pump()
	m.NoteRound(time.Second)
	if m.Status() != StatusOK || m.FiredTotal() != 0 || m.ActiveAlerts() != nil {
		t.Fatal("nil monitor not inert")
	}
	m.Summary(&strings.Builder{})
	rec := httptest.NewRecorder()
	m.ServeHealthz(rec, nil)
	if rec.Code != 200 {
		t.Fatalf("nil /healthz code = %d", rec.Code)
	}
	m.ServeJSON(httptest.NewRecorder(), nil)
	m.Close()
}

// servedSimRank runs one sim rank's progress server until the test ends and
// returns its registry.
func servedSimRank(t *testing.T) *telemetry.Registry {
	reg := telemetry.NewEnabled(0)
	s := lci.NewSharded(fabric.New(1, fabric.TestProfile()).Endpoint(0), lci.Options{Telemetry: reg})
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.Serve(stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	return reg
}

// polls is a single-shard rank's published progress poll count.
func polls(reg *telemetry.Registry) int64 {
	return reg.Counter(lci.MetricPollsBusy).Value() + reg.Counter(lci.MetricPollsIdle).Value()
}

// TestParkedServerNoFalseStall: an idle sim rank's server parks on the
// fabric's doorbell, but still passes at least once per backstop and
// publishes its poll tallies before it parks, so ticks raise no
// progress_stall. With LCI_INJECT_STALL the wedged shard still raises one.
// Ticks follow the server's park counter, not the wall clock.
func TestParkedServerNoFalseStall(t *testing.T) {
	t.Run("idle", func(t *testing.T) {
		reg := servedSimRank(t)
		m := New(Options{Rank: 0, Ranks: 1, Reg: reg})
		defer m.Close()
		parks := reg.Counter(lci.MetricParks)
		now := time.Unix(1000, 0)
		var last int64
		for tick := 0; tick < 2+2*m.opt.SLO.EnterTicks; tick++ {
			// Two more parks: the server woke, passed and published its
			// tallies before it parked again.
			for p := parks.Value(); parks.Value() < p+2; {
				time.Sleep(100 * time.Microsecond)
			}
			if n := polls(reg); n <= last {
				t.Fatalf("tick %d: poll counter %d did not advance past %d", tick, n, last)
			} else {
				last = n
			}
			now = now.Add(time.Second)
			tickAt(m, now)
		}
		if m.FiredTotal() != 0 || len(m.ActiveAlerts()) != 0 {
			t.Fatalf("parked idle server raised alerts: %+v", m.ActiveAlerts())
		}
	})
	t.Run("inject-stall", func(t *testing.T) {
		t.Setenv(lci.EnvInjectStall, "0:50ms:1h")
		reg := servedSimRank(t)
		m := New(Options{Rank: 0, Ranks: 1, Reg: reg})
		defer m.Close()
		for polls(reg) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		now := time.Unix(1000, 0)
		for m.FiredTotal() == 0 {
			time.Sleep(5 * time.Millisecond)
			now = now.Add(time.Second)
			tickAt(m, now)
		}
		alerts := m.ActiveAlerts()
		if len(alerts) != 1 || alerts[0].Name != AlertProgressStall || alerts[0].Shard != 0 {
			t.Fatalf("alerts = %+v, want one progress_stall on shard 0", alerts)
		}
	})
}
