package launch

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lcigraph/internal/health"
	"lcigraph/internal/incident"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// routeRank builds a rank's debug-port parts without a fabric: a registry
// and a monitor always, a tracer and an incident recorder only when full.
func routeRank(t *testing.T, rank int, full bool) *Rank {
	reg := telemetry.NewEnabled(rank)
	reg.Counter("hits_total").Add(2)
	r := &Rank{Rank: rank, Size: 2, Reg: reg}
	r.Mon = health.New(health.Options{Rank: rank, Ranks: 2, Reg: reg})
	if full {
		r.Tracer = tracing.New(rank, 0)
		r.Rec = incident.New(incident.Options{
			Rank: rank, Ranks: 2, Dir: t.TempDir(), ProfilePeriod: -1, Reg: reg,
		})
	}
	return r
}

// TestRoutes pins the operator surface: every path's status and content type
// on rank 0 and on a peer, each with every subsystem on and with tracing and
// incident capture off. A disabled subsystem answers on its own route.
func TestRoutes(t *testing.T) {
	const (
		prom  = "text/plain; version=0.0.4; charset=utf-8"
		text  = "text/plain; charset=utf-8"
		html  = "text/html; charset=utf-8"
		js    = "application/json"
		jsU   = "application/json; charset=utf-8"
		octet = "application/octet-stream"
	)
	type want struct {
		code  int
		ctype string
	}
	ok := func(ct string) want { return want{http.StatusOK, ct} }
	notFound := want{http.StatusNotFound, text}
	unavailable := want{http.StatusServiceUnavailable, js}

	cols := []struct {
		name string
		r    *Rank
	}{
		{"rank 0", routeRank(t, 0, true)},
		{"peer", routeRank(t, 1, true)},
		{"bare rank 0", routeRank(t, 0, false)},
		{"bare peer", routeRank(t, 1, false)},
	}
	table := []struct {
		path string
		body string // substring every 200 answer holds
		want [4]want
		// limited: the process-wide 1/s dump limit may answer 429 instead.
		limited bool
	}{
		{path: "/metrics", body: "# TYPE hits_total counter", want: [4]want{ok(prom), ok(prom), ok(prom), ok(prom)}},
		{path: "/metrics.json", body: `"hits_total": 2`, want: [4]want{ok(js), ok(js), ok(js), ok(js)}},
		{path: "/cluster", body: "# TYPE hits_total counter", want: [4]want{ok(prom), notFound, ok(prom), notFound}},
		{path: "/cluster.json", body: `"hits_total": 2`, want: [4]want{ok(js), notFound, ok(js), notFound}},
		{path: "/debug/pprof/", body: "profiles", want: [4]want{ok(html), ok(html), ok(html), ok(html)}},
		{path: "/debug/pprof/cmdline", want: [4]want{ok(text), ok(text), ok(text), ok(text)}},
		{path: "/debug/pprof/profile", want: [4]want{ok(octet), ok(octet), ok(octet), ok(octet)}},
		{path: "/debug/pprof/symbol", body: "num_symbols", want: [4]want{ok(text), ok(text), ok(text), ok(text)}},
		{path: "/debug/pprof/trace", want: [4]want{ok(octet), ok(octet), ok(octet), ok(octet)}},
		{path: "/debug/stacks", body: "goroutine ", want: [4]want{ok(text), ok(text), ok(text), ok(text)}, limited: true},
		{path: "/debug/trace", body: "traceEvents", want: [4]want{ok(jsU), ok(jsU), notFound, notFound}},
		{path: "/debug/trace/flight", body: "lci flight recorder", want: [4]want{ok(text), ok(text), notFound, notFound}},
		{path: "/healthz", body: `"status":"OK"`, want: [4]want{ok(js), ok(js), ok(js), ok(js)}},
		{path: "/debug/health.json", body: `"ranks_view"`, want: [4]want{ok(js), ok(js), ok(js), ok(js)}},
		{path: "/debug/incident", body: `"enabled"`, want: [4]want{ok(js), ok(js), ok(js), ok(js)}},
		{path: "/debug/incident/capture", body: `"accepted":true`, want: [4]want{ok(js), ok(js), unavailable, unavailable}},
	}
	// A cancelled request ends the CPU-profile and execution-trace windows
	// at once; no other handler looks at the request's context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, col := range cols {
		mux := col.r.routes(nil)
		for _, row := range table {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, row.path, nil).WithContext(ctx))
			w := row.want[i]
			code, ctype := rec.Code, rec.Header().Get("Content-Type")
			if row.limited && code == http.StatusTooManyRequests {
				code = http.StatusOK
			} else if code == http.StatusOK && !strings.Contains(rec.Body.String(), row.body) {
				t.Errorf("%s %s: body lacks %q: %.200s", col.name, row.path, row.body, rec.Body.String())
			}
			if code != w.code || ctype != w.ctype {
				t.Errorf("%s %s: %d %q, want %d %q", col.name, row.path, rec.Code, ctype, w.code, w.ctype)
			}
		}
	}
}
