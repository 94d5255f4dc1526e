package health

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// OpsLog is an append-only JSONL event log — the durable record of health
// transitions (monitor start/stop, alert fired/cleared, status changes)
// that survives the process and uploads as a CI artifact. One JSON object
// per line:
//
//	{"ts":"2026-08-08T12:00:01.5Z","event":"alert_fired","rank":1,...}
//
// All methods are nil-safe, so an unconfigured monitor logs nowhere at zero
// cost.
type OpsLog struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// OpenOpsLog opens (appending) or creates the log at path.
func OpenOpsLog(path string) (*OpsLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &OpsLog{f: f, enc: json.NewEncoder(f)}, nil
}

// Event appends one event line. fields merge into the envelope (keys "ts"
// and "event" are reserved).
func (l *OpsLog) Event(kind string, fields map[string]any) {
	if l == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	rec["event"] = kind
	l.mu.Lock()
	l.enc.Encode(rec)
	l.mu.Unlock()
}

// Close syncs and closes the log.
func (l *OpsLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.f.Sync()
	l.f.Close()
}
