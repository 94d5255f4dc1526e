package telemetry

import (
	"encoding/json"
	"net/http"
	runtimepprof "runtime/pprof"
	"sync/atomic"
	"time"
)

// ServeProm writes the snapshot in Prometheus text format: the body of a
// rank's /metrics and of rank 0's merged /cluster.
func (s *Snapshot) ServeProm(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(s.Prometheus()))
}

// ServeJSON writes the snapshot as indented JSON: the body of a rank's
// /metrics.json and of rank 0's merged /cluster.json.
func (s *Snapshot) ServeJSON(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s)
}

// stacksLastNs is the last time /debug/stacks served a dump (UnixNano),
// shared across handlers so the rate limit is process-wide.
var stacksLastNs atomic.Int64

// ServeStacks is the /debug/stacks handler: the full goroutine dump in
// debug=2 text form — every goroutine with its complete stack, the thing an
// operator wants first when a rank looks wedged. Walking every goroutine
// stops the world, so the endpoint rate-limits itself to one dump per
// second process-wide and answers 429 with Retry-After otherwise; a polling
// dashboard pointed at it by mistake cannot turn the debug port into a
// denial of service.
func ServeStacks(w http.ResponseWriter, _ *http.Request) {
	const minGap = time.Second
	for {
		last := stacksLastNs.Load()
		now := time.Now().UnixNano()
		if now-last < minGap.Nanoseconds() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "stack dumps are rate-limited to 1/s", http.StatusTooManyRequests)
			return
		}
		if stacksLastNs.CompareAndSwap(last, now) {
			break
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	runtimepprof.Lookup("goroutine").WriteTo(w, 2)
}
