package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"lcigraph/internal/health"
)

// top polls rank 0's /debug/health.json and renders the cluster view.
func top(args []string) {
	fs := flag.NewFlagSet("lci-ops top", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9380", "rank 0 telemetry endpoint (host:port)")
	interval := fs.Duration("interval", time.Second, "refresh period")
	once := fs.Bool("once", false, "render one frame without screen control and exit (CI-friendly)")
	asJSON := fs.Bool("json", false, "emit the raw health payload as JSON and exit (implies -once)")
	fs.Parse(args)

	url := "http://" + *addr + "/debug/health.json"
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		p, err := fetch(client, url)
		var frame string
		if err != nil {
			frame = fmt.Sprintf("lci-top: %v\n", err)
		} else if *asJSON {
			out, merr := json.MarshalIndent(p, "", "  ")
			if merr != nil {
				err, frame = merr, fmt.Sprintf("lci-top: %v\n", merr)
			} else {
				frame = string(out) + "\n"
			}
		} else {
			frame = render(p)
		}
		if *once || *asJSON {
			fmt.Print(frame)
			if err != nil || p.View.Status != health.StatusOK {
				os.Exit(1)
			}
			return
		}
		// Home + clear-to-end keeps the frame flicker-free on every ANSI
		// terminal without pulling in a TUI dependency.
		fmt.Print("\x1b[H\x1b[2J" + frame)
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (health.DebugPayload, error) {
	var p health.DebugPayload
	resp, err := client.Get(url)
	if err != nil {
		return p, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return p, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return p, json.NewDecoder(resp.Body).Decode(&p)
}

// render draws one frame. Its title still reads "lci-top", so anything
// that reads the frames keeps working.
func render(p health.DebugPayload) string {
	v := p.View
	var b strings.Builder
	fmt.Fprintf(&b, "lci-top — cluster %s  ranks=%d tick=%d alerts_active=%d alerts_fired=%d  %s\n",
		v.Status, v.Ranks, v.Tick, len(v.Alerts), v.FiredTotal,
		time.Unix(0, v.NowNs).Format("15:04:05"))
	fmt.Fprintf(&b, "%s\n", strings.Repeat("─", 78))

	fmt.Fprintf(&b, "%-5s %-10s %8s %8s %10s %6s  %s\n",
		"RANK", "STATUS", "AGE", "ROUNDS", "BARRIER", "SKEW", "POLLS/S (per shard)")
	for _, r := range v.RanksView {
		age := "-"
		if r.Rank != v.Rank {
			age = fmt.Sprintf("%.1fs", float64(r.AgeMs)/1000)
		}
		skew := "-"
		if r.Skew > 0 {
			skew = fmt.Sprintf("%.2fx", r.Skew)
		}
		rates := make([]string, len(r.PollRate))
		for i, pr := range r.PollRate {
			rates[i] = humanRate(pr)
		}
		fmt.Fprintf(&b, "%-5d %-10s %8s %8d %9dms %6s  %s\n",
			r.Rank, r.Status, age, r.Rounds, r.BarrierMs, skew,
			strings.Join(rates, " "))
	}

	if len(v.Alerts) > 0 {
		fmt.Fprintf(&b, "\nACTIVE ALERTS\n")
		for _, a := range v.Alerts {
			since := time.Since(time.Unix(0, a.SinceNs)).Truncate(time.Second)
			fmt.Fprintf(&b, "  [%s] %-16s rank=%d shard=%d for %-8s %s\n",
				a.Severity, a.Name, a.Rank, a.Shard, since, a.Detail)
		}
	}

	if len(v.TopRates) > 0 {
		fmt.Fprintf(&b, "\nTOP RATES\n")
		for _, r := range v.TopRates {
			fmt.Fprintf(&b, "  %-58s %12s/s %s\n", r.Name, humanRate(r.PerSec), spark(p.Series[r.Name+":rate"]))
		}
	}
	if v.SeriesDropped > 0 {
		fmt.Fprintf(&b, "\n(%d series beyond the cap were dropped)\n", v.SeriesDropped)
	}
	return b.String()
}

// humanRate renders events/s compactly (1.2k, 3.4M).
func humanRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// spark renders a series' recent trajectory as a block-character sparkline.
func spark(pts []health.Point) string {
	const blocks = "▁▂▃▄▅▆▇█"
	if len(pts) == 0 {
		return ""
	}
	if len(pts) > 32 {
		pts = pts[len(pts)-32:]
	}
	lo, hi := pts[0].V, pts[0].V
	for _, p := range pts {
		if p.V < lo {
			lo = p.V
		}
		if p.V > hi {
			hi = p.V
		}
	}
	var b strings.Builder
	for _, p := range pts {
		i := 0
		if hi > lo {
			i = int((p.V - lo) / (hi - lo) * 7)
		}
		b.WriteRune([]rune(blocks)[i])
	}
	return b.String()
}
