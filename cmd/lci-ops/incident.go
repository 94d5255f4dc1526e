package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"lcigraph/internal/health"
	"lcigraph/internal/incident"
	"lcigraph/internal/telemetry"
)

// ---- verify ----

func verify(path string) error {
	b, err := incident.ReadBundle(path)
	if err != nil {
		return err
	}
	probs := b.Verify()
	for _, p := range probs {
		fmt.Println(p)
	}
	if len(probs) > 0 {
		return fmt.Errorf("verify: %d problem(s) in %s", len(probs), path)
	}
	m := b.Manifest
	fmt.Printf("OK %s: schema %d, trigger %s, %d/%d ranks, %d files\n",
		m.ID, m.Schema, m.Trigger.Kind, len(m.GotRanks), m.Ranks, len(b.Files)-1)
	return nil
}

// ---- report ----

// rankEvidence is one rank's decoded evidence set (absent pieces are nil).
type rankEvidence struct {
	rank    int
	meta    incident.Meta
	hasMeta bool
	metrics *telemetry.Snapshot
	hlth    *health.DebugPayload
	cpu     *incident.Profile
	gor     *incident.Profile
	baseCPU *incident.Profile // newest continuous pre-incident CPU profile
	baseGor *incident.Profile // newest continuous pre-incident goroutine profile
}

func loadRank(b *incident.Bundle, r int) rankEvidence {
	ev := rankEvidence{rank: r}
	ev.meta, ev.hasMeta = b.RankMeta(r)
	if data := b.RankFile(r, incident.FileMetrics); data != nil {
		var s telemetry.Snapshot
		if json.Unmarshal(data, &s) == nil {
			ev.metrics = &s
		}
	}
	if data := b.RankFile(r, incident.FileHealth); data != nil {
		var p health.DebugPayload
		if json.Unmarshal(data, &p) == nil {
			ev.hlth = &p
		}
	}
	parse := func(name string) *incident.Profile {
		data := b.RankFile(r, name)
		if data == nil {
			return nil
		}
		p, err := incident.ParseProfile(data)
		if err != nil {
			return nil
		}
		return p
	}
	ev.cpu = parse(incident.FileCPU)
	ev.gor = parse(incident.FileGoroutine)
	// The continuous ring is ordered oldest→newest per kind; the
	// highest-numbered entry is the freshest pre-incident baseline.
	for _, kind := range []string{"cpu", "goroutine"} {
		var newest *incident.Profile
		for i := 0; ; i++ {
			p := parse(fmt.Sprintf("%s/%s-%d.pprof", incident.ContinuousDir, kind, i))
			if p == nil {
				break
			}
			newest = p
		}
		if kind == "cpu" {
			ev.baseCPU = newest
		} else {
			ev.baseGor = newest
		}
	}
	return ev
}

func report(path string) error {
	b, err := incident.ReadBundle(path)
	if err != nil {
		return err
	}
	m := b.Manifest
	fmt.Printf("incident %s\n", m.ID)
	fmt.Printf("  created:  %s\n", time.Unix(0, m.CreatedNs).Format(time.RFC3339))
	trig := m.Trigger.Kind
	if m.Trigger.Alert != nil {
		a := m.Trigger.Alert
		trig = fmt.Sprintf("%s → alert %s rank=%d shard=%d [%s]: %s",
			trig, a.Name, a.Rank, a.Shard, a.Severity, a.Detail)
	} else if m.Trigger.Detail != "" {
		trig += " — " + m.Trigger.Detail
	}
	fmt.Printf("  trigger:  %s (origin rank %d)\n", trig, m.Trigger.Rank)
	fmt.Printf("  evidence: %d/%d ranks", len(m.GotRanks), m.Ranks)
	if len(m.Missing) > 0 {
		fmt.Printf("  MISSING: %v", m.Missing)
	}
	fmt.Println()
	if len(m.Clocks) > 1 {
		base := m.Clocks[0].WallNs
		var parts []string
		for _, c := range m.Clocks[1:] {
			parts = append(parts, fmt.Sprintf("r%d %+.1fms", c.Rank, float64(c.WallNs-base)/1e6))
		}
		fmt.Printf("  clock offsets vs rank %d: %s\n", m.Clocks[0].Rank, strings.Join(parts, ", "))
	}

	evs := make([]rankEvidence, 0, len(m.GotRanks))
	for _, r := range m.GotRanks {
		evs = append(evs, loadRank(b, r))
	}

	fmt.Println("\n== per-rank attribution ==")
	for _, ev := range evs {
		reportRank(ev)
	}
	fmt.Println("\n== transport hot spots ==")
	reportTransport(evs)
	fmt.Println("\n== CPU profile delta (incident vs pre-incident baseline) ==")
	for _, ev := range evs {
		reportCPUDelta(ev)
	}
	fmt.Println("\n== goroutine-leak diff ==")
	for _, ev := range evs {
		reportGoroutineDiff(ev)
	}
	return nil
}

// reportRank prints one rank's judgment row: status, alerts (naming
// rank:shard), and per-shard poll-rate collapse vs the rank's own baseline.
func reportRank(ev rankEvidence) {
	fmt.Printf("rank %d:", ev.rank)
	if ev.hasMeta {
		fmt.Printf(" %d goroutines, GOMAXPROCS=%d", ev.meta.NumGoroutine, ev.meta.GOMAXPROCS)
		if len(ev.meta.Errors) > 0 {
			fmt.Printf(" (capture errors: %s)", strings.Join(ev.meta.Errors, "; "))
		}
	}
	fmt.Println()
	if ev.hlth == nil {
		fmt.Println("  (no health evidence)")
		return
	}
	v := ev.hlth.View
	fmt.Printf("  status %s, %d alert(s) active, %d fired total\n", v.Status, len(v.Alerts), v.FiredTotal)
	for _, a := range v.Alerts {
		fmt.Printf("  ALERT [%s] %s rank=%d shard=%d: %s\n", a.Severity, a.Name, a.Rank, a.Shard, a.Detail)
	}
	// Per-shard poll-rate collapse: compare each progress-poll series' recent
	// window against its pre-incident baseline.
	type shardDelta struct {
		name         string
		base, recent float64
	}
	var collapsed []shardDelta
	for name, pts := range ev.hlth.Series {
		if !strings.Contains(name, "progress_polls_total") || !strings.HasSuffix(name, ":rate") {
			continue
		}
		base, recent, ok := baselineRecent(pts)
		if !ok {
			continue
		}
		if base > 0 && recent < base*0.1 {
			collapsed = append(collapsed, shardDelta{strings.TrimSuffix(name, ":rate"), base, recent})
		}
	}
	sort.Slice(collapsed, func(i, j int) bool { return collapsed[i].name < collapsed[j].name })
	for _, c := range collapsed {
		fmt.Printf("  poll-rate collapse: %s  %.0f/s baseline → %.0f/s at capture\n",
			c.name, c.base, c.recent)
	}
}

// baselineRecent splits a series into its pre-incident baseline (first
// third) and the capture-time window (last 3 points), averaging each.
func baselineRecent(pts []health.Point) (base, recent float64, ok bool) {
	if len(pts) < 4 {
		return 0, 0, false
	}
	n := len(pts) / 3
	if n < 1 {
		n = 1
	}
	for _, p := range pts[:n] {
		base += p.V
	}
	base /= float64(n)
	tail := pts[len(pts)-3:]
	for _, p := range tail {
		recent += p.V
	}
	recent /= float64(len(tail))
	return base, recent, true
}

// reportTransport lists retransmit / credit-stall totals per rank and the
// worst-SRTT peers — the hot links during the incident.
func reportTransport(evs []rankEvidence) {
	type peerRTT struct {
		rank   int
		peer   string
		srttMs float64
	}
	var rtts []peerRTT
	any := false
	for _, ev := range evs {
		if ev.metrics == nil {
			continue
		}
		rt := ev.metrics.Counter("lci_net_retransmits_total")
		cs := ev.metrics.Counter("lci_net_credit_stalls_total")
		st := ev.metrics.Counter("lci_net_stalls_total")
		if rt+cs+st > 0 {
			any = true
			fmt.Printf("rank %d: retransmits=%d credit_stalls=%d stall_episodes=%d\n",
				ev.rank, rt, cs, st)
		}
		for name, g := range ev.metrics.Gauges {
			if !strings.HasPrefix(name, "lci_net_srtt_ns{peer=") {
				continue
			}
			peer := strings.TrimSuffix(strings.TrimPrefix(name, `lci_net_srtt_ns{peer="`), `"}`)
			rtts = append(rtts, peerRTT{ev.rank, peer, float64(g.Value) / 1e6})
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i].srttMs > rtts[j].srttMs })
	if len(rtts) > 5 {
		rtts = rtts[:5]
	}
	for _, r := range rtts {
		if r.srttMs > 0 {
			any = true
			fmt.Printf("rank %d → peer %s: srtt %.2fms\n", r.rank, r.peer, r.srttMs)
		}
	}
	if !any {
		fmt.Println("(no transport anomalies recorded)")
	}
}

// flatFractions renders a profile's flat symbols as fractions of its total.
func flatFractions(p *incident.Profile, want string) map[string]float64 {
	out := map[string]float64{}
	if p == nil {
		return out
	}
	total := p.Total(want)
	if total <= 0 {
		return out
	}
	for _, sv := range p.FlatSymbols(want) {
		out[sv.Symbol] = float64(sv.Value) / float64(total)
	}
	return out
}

func reportCPUDelta(ev rankEvidence) {
	if ev.cpu == nil && ev.baseCPU == nil {
		fmt.Printf("rank %d: (no CPU evidence)\n", ev.rank)
		return
	}
	cur := flatFractions(ev.cpu, "cpu")
	base := flatFractions(ev.baseCPU, "cpu")
	live := ev.cpu
	label := "live capture"
	if live == nil {
		// Wedged rank whose live profile never ran: fall back to the
		// continuous baseline alone.
		cur, base = base, nil
		label = "continuous baseline only"
	}
	type row struct {
		sym       string
		frac, dlt float64
	}
	var rows []row
	for sym, f := range cur {
		r := row{sym: sym, frac: f}
		if base != nil {
			r.dlt = f - base[sym]
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].frac != rows[j].frac {
			return rows[i].frac > rows[j].frac
		}
		return rows[i].sym < rows[j].sym
	})
	if len(rows) > 6 {
		rows = rows[:6]
	}
	fmt.Printf("rank %d (%s):\n", ev.rank, label)
	for _, r := range rows {
		if base != nil {
			fmt.Printf("  %6.1f%%  (%+5.1fpp vs baseline)  %s\n", r.frac*100, r.dlt*100, r.sym)
		} else {
			fmt.Printf("  %6.1f%%  %s\n", r.frac*100, r.sym)
		}
	}
}

func reportGoroutineDiff(ev rankEvidence) {
	if ev.gor == nil {
		fmt.Printf("rank %d: (no goroutine evidence)\n", ev.rank)
		return
	}
	curTotal := ev.gor.Total("goroutine")
	baseTotal := int64(0)
	baseBySym := map[string]int64{}
	if ev.baseGor != nil {
		baseTotal = ev.baseGor.Total("goroutine")
		for _, sv := range ev.baseGor.FlatSymbols("goroutine") {
			baseBySym[sv.Symbol] = sv.Value
		}
	}
	fmt.Printf("rank %d: %d goroutines", ev.rank, curTotal)
	if ev.baseGor != nil {
		fmt.Printf(" (%+d vs pre-incident baseline)", curTotal-baseTotal)
	}
	fmt.Println()
	grew := 0
	for _, sv := range ev.gor.FlatSymbols("goroutine") {
		d := sv.Value - baseBySym[sv.Symbol]
		if ev.baseGor != nil && d > 0 {
			fmt.Printf("  %+4d  %s\n", d, sv.Symbol)
			grew++
			if grew >= 5 {
				break
			}
		}
	}
}

// ---- diff ----

func diff(pathA, pathB string) error {
	a, err := incident.ReadBundle(pathA)
	if err != nil {
		return err
	}
	b, err := incident.ReadBundle(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("diff %s → %s\n", a.Manifest.ID, b.Manifest.ID)
	fmt.Printf("  triggers: %s → %s\n", a.Manifest.Trigger.Kind, b.Manifest.Trigger.Kind)
	fmt.Printf("  gap: %.1fs\n", float64(b.Manifest.CreatedNs-a.Manifest.CreatedNs)/1e9)

	merge := func(bun *incident.Bundle) *telemetry.Snapshot {
		var snaps []*telemetry.Snapshot
		for _, r := range bun.Manifest.GotRanks {
			if data := bun.RankFile(r, incident.FileMetrics); data != nil {
				var s telemetry.Snapshot
				if json.Unmarshal(data, &s) == nil {
					snaps = append(snaps, &s)
				}
			}
		}
		return telemetry.Merge(snaps...)
	}
	sa, sb := merge(a), merge(b)

	fmt.Println("\n== cluster counter deltas (b - a) ==")
	names := make([]string, 0, len(sb.Counters))
	for name := range sb.Counters {
		names = append(names, name)
	}
	for name := range sa.Counters {
		if _, ok := sb.Counters[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	shown := 0
	for _, name := range names {
		d := sb.Counters[name] - sa.Counters[name]
		if d == 0 {
			continue
		}
		fmt.Printf("  %-52s %+d\n", name, d)
		shown++
	}
	if shown == 0 {
		fmt.Println("  (no counter movement)")
	}

	fmt.Println("\n== CPU symbol shift (rank 0, b vs a) ==")
	profOf := func(bun *incident.Bundle) *incident.Profile {
		data := bun.RankFile(0, incident.FileCPU)
		if data == nil {
			return nil
		}
		p, err := incident.ParseProfile(data)
		if err != nil {
			return nil
		}
		return p
	}
	fa, fb := flatFractions(profOf(a), "cpu"), flatFractions(profOf(b), "cpu")
	if len(fa) == 0 || len(fb) == 0 {
		fmt.Println("  (missing rank-0 CPU profiles)")
		return nil
	}
	type shift struct {
		sym string
		d   float64
	}
	var shifts []shift
	for sym, f := range fb {
		shifts = append(shifts, shift{sym, f - fa[sym]})
	}
	for sym, f := range fa {
		if _, ok := fb[sym]; !ok {
			shifts = append(shifts, shift{sym, -f})
		}
	}
	sort.Slice(shifts, func(i, j int) bool {
		ai, aj := shifts[i].d, shifts[j].d
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return shifts[i].sym < shifts[j].sym
	})
	if len(shifts) > 8 {
		shifts = shifts[:8]
	}
	for _, s := range shifts {
		fmt.Printf("  %+6.1fpp  %s\n", s.d*100, s.sym)
	}
	return nil
}
