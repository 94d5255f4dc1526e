package incident

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"lcigraph/internal/tracing"
)

// Evidence file names inside a rank's directory of the bundle.
const (
	FileMeta      = "meta.json"
	FileCPU       = "cpu.pprof"
	FileHeap      = "heap.pprof"
	FileGoroutine = "goroutine.pprof"
	FileMutex     = "mutex.pprof"
	FileTrace     = "trace.json"
	FileMetrics   = "metrics.json"
	FileHealth    = "health.json"
	ContinuousDir = "continuous"
)

// Meta is a rank's meta.json: capture-time clocks (wall for cross-rank
// alignment, monotonic-since-start for skew correction) and runtime vitals.
type Meta struct {
	Rank         int      `json:"rank"`
	WallNs       int64    `json:"wall_ns"`
	MonoNs       int64    `json:"mono_ns"`
	Trigger      Trigger  `json:"trigger"`
	GoVersion    string   `json:"go_version"`
	NumGoroutine int      `json:"num_goroutine"`
	NumCPU       int      `json:"num_cpu"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CPUProfileMs int64    `json:"cpu_profile_ms"` // live CPU window actually used (0 = skipped)
	Errors       []string `json:"errors,omitempty"`
}

// continuousIndexEntry describes one archived continuous profile in
// continuous/index.json.
type continuousIndexEntry struct {
	File   string `json:"file"`
	Kind   string `json:"kind"`
	WallNs int64  `json:"wall_ns"`
	MonoNs int64  `json:"mono_ns"`
}

// captureLocal snapshots this rank's full evidence set and returns it as a
// gzipped tar whose entry names are relative (no rank prefix; rank 0 adds
// it when assembling the bundle). withCPU selects the live ~2s CPU profile;
// the SIGQUIT emergency path skips it — the process is about to die and the
// continuous ring already holds recent CPU evidence.
func (r *Recorder) captureLocal(trig Trigger, withCPU bool) []byte {
	now := time.Now()
	meta := Meta{
		Rank:         r.opt.Rank,
		WallNs:       now.UnixNano(),
		MonoNs:       monoNs(),
		Trigger:      trig,
		GoVersion:    runtime.Version(),
		NumGoroutine: runtime.NumGoroutine(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
	}

	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	tw := tar.NewWriter(zw)
	addFile := func(name string, data []byte) {
		if len(data) == 0 {
			return
		}
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(len(data)), ModTime: now}
		if err := tw.WriteHeader(hdr); err != nil {
			meta.Errors = append(meta.Errors, fmt.Sprintf("%s: %v", name, err))
			return
		}
		if _, err := tw.Write(data); err != nil {
			meta.Errors = append(meta.Errors, fmt.Sprintf("%s: %v", name, err))
		}
	}

	// Goroutine dump first: when a rank is wedged, the stacks are the prize,
	// and everything below could in principle fail.
	addFile(FileGoroutine, lookupProfile("goroutine"))
	addFile(FileHeap, lookupProfile("heap"))
	addFile(FileMutex, lookupProfile("mutex"))

	if withCPU && r.opt.CPUProfile > 0 {
		cpu, err := captureCPU(r.opt.CPUProfile, r.stop)
		if err != nil {
			meta.Errors = append(meta.Errors, fmt.Sprintf("cpu profile: %v", err))
		} else {
			addFile(FileCPU, cpu)
			meta.CPUProfileMs = r.opt.CPUProfile.Milliseconds()
		}
	}

	if tr := r.opt.Tracer; tr.Enabled() {
		addFile(FileTrace, tracing.ChromeTrace(tr.Events(), tr.Rank()))
	}
	if r.opt.Reg.Enabled() {
		if b, err := json.Marshal(r.opt.Reg.Snapshot()); err == nil {
			addFile(FileMetrics, b)
		}
	}
	if r.opt.Monitor != nil {
		if b, err := json.Marshal(r.opt.Monitor.DebugJSON()); err == nil {
			addFile(FileHealth, b)
		}
	}

	// Continuous-profiling ring: the pre-incident baseline.
	if entries := r.prof.entries(); len(entries) > 0 {
		var index []continuousIndexEntry
		counts := map[string]int{}
		for _, e := range entries {
			name := fmt.Sprintf("%s/%s-%d.pprof", ContinuousDir, e.Kind, counts[e.Kind])
			counts[e.Kind]++
			addFile(name, e.Data)
			index = append(index, continuousIndexEntry{
				File: name, Kind: e.Kind, WallNs: e.WallNs, MonoNs: e.MonoNs,
			})
		}
		if b, err := json.Marshal(index); err == nil {
			addFile(ContinuousDir+"/index.json", b)
		}
	}

	// Meta last so it can carry the capture errors.
	if b, err := json.MarshalIndent(meta, "", "  "); err == nil {
		addFile(FileMeta, b)
	}
	tw.Close()
	zw.Close()
	return buf.Bytes()
}

// unpackEvidence expands one rank's gzipped evidence tar into name→bytes.
func unpackEvidence(blob []byte) (map[string][]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	out := map[string][]byte{}
	tr := tar.NewReader(zr)
	for {
		hdr, err := tr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return out, err
		}
		var b bytes.Buffer
		if _, err := b.ReadFrom(tr); err != nil {
			return out, err
		}
		out[hdr.Name] = b.Bytes()
	}
	return out, nil
}
