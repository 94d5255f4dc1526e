package tracing

import (
	"net/http"
)

const disabledMsg = "tracing disabled (start the job with -trace or -trace-out)"

// ServeTrace writes the /debug/trace body: doc when it is non-nil (rank 0's
// merged cross-rank document), else this rank's own trace, as catapult JSON
// (open in Perfetto or chrome://tracing). A nil tracer answers 404.
func (t *Tracer) ServeTrace(w http.ResponseWriter, doc []byte) {
	if t == nil {
		http.Error(w, disabledMsg, http.StatusNotFound)
		return
	}
	if doc == nil {
		doc = ChromeTrace(t.Events(), t.rank)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(doc)
}

// ServeFlight is the /debug/trace/flight handler: the flight-recorder text
// dump. A nil tracer answers 404.
func (t *Tracer) ServeFlight(w http.ResponseWriter, _ *http.Request) {
	if t == nil {
		http.Error(w, disabledMsg, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	t.Dump(w, "http")
}
