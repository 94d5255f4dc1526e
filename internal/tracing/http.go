package tracing

import (
	"net/http"
)

// Handler serves the tracer over HTTP next to the telemetry endpoints:
//
//	/debug/trace         catapult JSON (open in Perfetto / chrome://tracing)
//	/debug/trace/flight  flight-recorder text dump
//
// merged, when non-nil, supplies a cross-rank merged document (rank 0 of
// lci-launch scrapes its peers); if it is nil or fails, the local rank's
// trace is served instead. ?local=1 always serves the local rank. A nil
// tracer answers 404, mirroring the disabled-telemetry dark path.
func Handler(t *Tracer, merged func() ([]byte, error)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled (start the job with -trace or -trace-out)", http.StatusNotFound)
			return
		}
		doc := []byte(nil)
		if merged != nil && r.URL.Query().Get("local") == "" {
			if b, err := merged(); err == nil {
				doc = b
			}
		}
		if doc == nil {
			doc = ChromeTrace(t.Events(), t.rank)
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(doc)
	})
	mux.HandleFunc("/debug/trace/flight", func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled (start the job with -trace or -trace-out)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		t.Dump(w, "http")
	})
	return mux
}
