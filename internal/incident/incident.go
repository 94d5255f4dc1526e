// Package incident is the postmortem capture layer (DESIGN.md §17): when a
// health detector latches — or an operator asks, via /debug/incident/capture
// or SIGUSR1 — every rank snapshots a correlated evidence set (CPU / heap /
// goroutine / mutex profiles, the tracing ring as a Chrome blob, the
// telemetry snapshot, the health time-series window, the active alert set)
// and rank 0 gathers all of it over the communication layer itself into one
// tar.gz bundle with a JSON manifest. A continuous-profiling mode keeps a
// bounded ring of recent CPU/goroutine profiles per rank so every bundle
// carries a *pre*-incident baseline to diff against.
//
// Threading model (mirrors internal/health): triggers may arrive from any
// goroutine (alert hook, HTTP handler, signal handler) and land in a
// 1-deep channel — a full channel IS the coalescing. All comm-layer
// traffic happens in Pump, which the layer-owning goroutine drives (wired
// through health.Monitor.SetPumpHook so the existing abelian/serve call
// sites need no change). The multi-second capture work itself runs on a
// dedicated goroutine under a single-flight guard shared with the SIGQUIT
// emergency path. Without a bound layer (single-rank jobs, in-process
// tests) a fallback watcher turns triggers into local-only bundles.
package incident

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	"lcigraph/internal/health"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// Trigger records why a capture ran.
type Trigger struct {
	Kind   string        `json:"kind"` // "alert" | "manual" | "signal" | "sigquit"
	Detail string        `json:"detail,omitempty"`
	Alert  *health.Alert `json:"alert,omitempty"`
	Rank   int           `json:"rank"` // origin rank
	AtNs   int64         `json:"at_ns"`
}

// Options configures a Recorder.
type Options struct {
	Rank, Ranks int
	// Dir receives bundles (rank 0 writes gathered ones; any rank may write
	// a local-only emergency bundle). Required.
	Dir     string
	Reg     *telemetry.Registry
	Tracer  *tracing.Tracer
	Monitor *health.Monitor
	// CPUProfile is the live capture's CPU window (default 2s; <0 disables
	// the live CPU profile).
	CPUProfile time.Duration
	// ProfilePeriod is the continuous-profiling cadence (default 60s;
	// <0 disables). Each cycle archives one ProfileDuration CPU window and
	// one goroutine snapshot into a ring of ProfileKeep entries per kind.
	ProfilePeriod   time.Duration
	ProfileDuration time.Duration // default 2s
	ProfileKeep     int           // default 4
	// GatherTimeout bounds rank 0's wait for peer evidence (default 10s).
	GatherTimeout time.Duration
	// Cooldown spaces captures (default 30s): a flapping detector coalesces
	// into at most one bundle per window.
	Cooldown time.Duration
}

func (o *Options) fill() {
	if o.Ranks <= 0 {
		o.Ranks = 1
	}
	if o.CPUProfile == 0 {
		o.CPUProfile = 2 * time.Second
	}
	if o.ProfilePeriod == 0 {
		o.ProfilePeriod = 60 * time.Second
	}
	if o.ProfileDuration <= 0 {
		o.ProfileDuration = 2 * time.Second
	}
	if o.ProfileKeep <= 0 {
		o.ProfileKeep = 4
	}
	if o.GatherTimeout <= 0 {
		o.GatherTimeout = 10 * time.Second
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 30 * time.Second
	}
}

// captured is a finished local capture headed for the pump.
type captured struct {
	id   string
	trig Trigger
	blob []byte
}

// gather is rank 0's in-flight incident (pump-owned).
type gather struct {
	id       string
	trig     Trigger
	deadline time.Time
	parts    map[int][][]byte // rank → chunks (nil until first)
	got      map[int]int      // rank → chunks received
	blobs    map[int][]byte   // rank → assembled evidence
}

// pumpSide is all state owned by the layer-driving goroutine.
type pumpSide struct {
	layer         comm.AsyncLayer
	lastDrain     time.Time
	cur           *gather   // rank 0 only
	cooldownUntil time.Time // rank 0 only
}

// Recorder is one rank's incident recorder. All exported methods are safe
// on a nil receiver, so wiring can be unconditional.
type Recorder struct {
	opt  Options
	prof *profiler
	g    guard

	trigCh chan Trigger  // capacity 1: a full channel coalesces
	evidCh chan captured // capture goroutine → pump

	hasLayer atomic.Bool
	pp       pumpSide

	stop      chan struct{}
	done      chan struct{}
	started   atomic.Bool
	closed    atomic.Bool
	bundles   atomic.Int64
	trigDrops atomic.Int64
	lastPath  atomic.Value // string
}

// New builds a recorder. A zero Dir disables incident capture entirely and
// returns nil — every method on a nil Recorder is a no-op.
func New(opt Options) *Recorder {
	if opt.Dir == "" {
		return nil
	}
	opt.fill()
	r := &Recorder{
		opt:    opt,
		trigCh: make(chan Trigger, 1),
		evidCh: make(chan captured, 2),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if opt.ProfilePeriod > 0 {
		r.prof = newProfiler(opt.ProfilePeriod, opt.ProfileDuration, opt.ProfileKeep)
	}
	return r
}

// Start launches the continuous profiler and the local-mode fallback
// watcher. Second and later calls are no-ops.
func (r *Recorder) Start() {
	if r == nil || !r.started.CompareAndSwap(false, true) {
		return
	}
	if r.prof != nil {
		r.prof.start()
	}
	go r.watch()
}

// Close stops the profiler and watcher. In-flight captures are cancelled
// (their CPU window cuts short); an unfinished gather is abandoned.
func (r *Recorder) Close() {
	if r == nil || !r.closed.CompareAndSwap(false, true) {
		return
	}
	close(r.stop)
	if r.started.Load() {
		<-r.done
	}
	if r.prof != nil {
		r.prof.close()
	}
}

// Bind attaches the comm layer evidence travels over. Layers without
// reserved-tag messaging (or single-rank jobs) leave the recorder in
// local-only mode; everything else still works.
func (r *Recorder) Bind(layer comm.Layer) {
	if r == nil || layer == nil || r.opt.Ranks <= 1 {
		return
	}
	if al, ok := layer.(comm.AsyncLayer); ok {
		r.pp.layer = al
		r.hasLayer.Store(true)
	}
}

// OnAlert is the health monitor's alert hook: every latched episode
// requests a capture. Wire it with Monitor.SetAlertHook(rec.OnAlert).
func (r *Recorder) OnAlert(a health.Alert) {
	if r == nil {
		return
	}
	al := a
	r.enqueue(Trigger{
		Kind: "alert", Detail: a.Detail, Alert: &al,
		Rank: r.opt.Rank, AtNs: time.Now().UnixNano(),
	})
}

// TriggerCapture requests an on-demand capture (HTTP endpoint, SIGUSR1,
// tests). Returns false when the request coalesced into a pending one.
func (r *Recorder) TriggerCapture(kind, detail string) bool {
	if r == nil {
		return false
	}
	return r.enqueue(Trigger{
		Kind: kind, Detail: detail, Rank: r.opt.Rank, AtNs: time.Now().UnixNano(),
	})
}

func (r *Recorder) enqueue(t Trigger) bool {
	select {
	case r.trigCh <- t:
		return true
	default:
		r.trigDrops.Add(1)
		return false
	}
}

// Stats reports (captures started, attempts coalesced, bundles written).
func (r *Recorder) Stats() (captures, coalesced, bundles int64) {
	if r == nil {
		return 0, 0, 0
	}
	c, co := r.g.stats()
	return c, co + r.trigDrops.Load(), r.bundles.Load()
}

// LastBundle returns the most recent bundle path this rank wrote ("" when
// none).
func (r *Recorder) LastBundle() string {
	if r == nil {
		return ""
	}
	if s, ok := r.lastPath.Load().(string); ok {
		return s
	}
	return ""
}

// ProfileEntries exposes the continuous-profiling ring (for the HTTP status
// payload and tests).
func (r *Recorder) ProfileEntries() []ProfileEntry {
	if r == nil {
		return nil
	}
	return r.prof.entries()
}

// ---- wire protocol on cluster.IncidentTag ----

// wireMsg is the JSON header of every incident frame. Evidence payload
// bytes follow the header; everything else is header-only.
type wireMsg struct {
	Kind    string  `json:"kind"` // "req" | "go" | "evid"
	ID      string  `json:"id"`
	Trigger Trigger `json:"trigger,omitempty"`
	Rank    int     `json:"rank"`  // evid: sending rank
	Seq     int     `json:"seq"`   // evid: chunk index
	Total   int     `json:"total"` // evid: chunk count
}

// chunkPayload bounds one evidence frame's payload. Evidence blobs are
// gzipped tars of a few hundred KiB; chunking keeps any single message
// within the transport's comfort zone regardless of layer.
const chunkPayload = 128 << 10

// maxEvidenceChunks bounds one rank's evidence at maxEvidenceChunks ×
// chunkPayload (128 MiB). A chunk header's Total sizes rank 0's reassembly
// slice, so rank 0 drops any header above the cap, and a sender never
// posts more chunks than it.
const maxEvidenceChunks = 1024

func (r *Recorder) post(peer int, h wireMsg, payload []byte) {
	hb, err := json.Marshal(h)
	if err != nil {
		return
	}
	buf := r.pp.layer.AllocBuf(4 + len(hb) + len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(hb)))
	copy(buf[4:], hb)
	copy(buf[4+len(hb):], payload)
	r.pp.layer.PostTag(peer, cluster.IncidentTag, buf)
}

func decodeWire(data []byte) (wireMsg, []byte, bool) {
	var h wireMsg
	if len(data) < 4 {
		return h, nil, false
	}
	n := binary.LittleEndian.Uint32(data)
	if uint32(len(data)-4) < n {
		return h, nil, false
	}
	if json.Unmarshal(data[4:4+n], &h) != nil {
		return h, nil, false
	}
	return h, data[4+n:], true
}

// pumpInterval rate-limits the idle drain; pending local work bypasses it.
const pumpInterval = 100 * time.Millisecond

// Pump advances the incident protocol and must be called from the goroutine
// that owns the comm layer (ride health.Monitor.SetPumpHook). It
// rate-limits itself, so calling it every loop iteration is effectively
// free.
func (r *Recorder) Pump() {
	if r == nil || r.pp.layer == nil {
		return
	}
	now := time.Now()
	if now.Sub(r.pp.lastDrain) < pumpInterval &&
		len(r.trigCh) == 0 && len(r.evidCh) == 0 {
		return
	}
	r.pp.lastDrain = now

	// Local triggers.
drainTrig:
	for {
		select {
		case t := <-r.trigCh:
			if r.opt.Rank == 0 {
				r.maybeStart(t, now)
			} else {
				r.post(0, wireMsg{Kind: "req", Trigger: t, Rank: r.opt.Rank}, nil)
			}
		default:
			break drainTrig
		}
	}

	// Wire traffic.
	for {
		msg, ok := r.pp.layer.RecvTag(cluster.IncidentTag)
		if !ok {
			break
		}
		h, payload, ok := decodeWire(msg.Data)
		if ok {
			r.handleWire(h, payload, now)
		}
		msg.Release()
	}

	// Finished local captures.
drainEvid:
	for {
		select {
		case ev := <-r.evidCh:
			if r.opt.Rank == 0 {
				if r.pp.cur != nil && r.pp.cur.id == ev.id {
					r.pp.cur.blobs[0] = ev.blob
				}
			} else {
				r.postEvidence(ev)
			}
		default:
			break drainEvid
		}
	}

	if r.opt.Rank == 0 && r.pp.cur != nil {
		g := r.pp.cur
		if len(g.blobs) == r.opt.Ranks || now.After(g.deadline) {
			r.pp.cur = nil
			r.pp.cooldownUntil = now.Add(r.opt.Cooldown)
			go r.finishBundle(g)
		}
	}
}

// maybeStart opens a new incident on rank 0 (from a local trigger or a
// peer's req). A running gather or the cooldown coalesces the request.
func (r *Recorder) maybeStart(t Trigger, now time.Time) {
	if r.pp.cur != nil || now.Before(r.pp.cooldownUntil) {
		r.trigDrops.Add(1)
		return
	}
	id := fmt.Sprintf("incident-%d-r%d", now.UnixNano(), t.Rank)
	r.pp.cur = &gather{
		id:       id,
		trig:     t,
		deadline: now.Add(r.opt.GatherTimeout),
		parts:    map[int][][]byte{},
		got:      map[int]int{},
		blobs:    map[int][]byte{},
	}
	for p := 1; p < r.opt.Ranks; p++ {
		r.post(p, wireMsg{Kind: "go", ID: id, Trigger: t}, nil)
	}
	r.beginCapture(t, id, true)
}

func (r *Recorder) handleWire(h wireMsg, payload []byte, now time.Time) {
	switch h.Kind {
	case "req":
		if r.opt.Rank == 0 {
			r.maybeStart(h.Trigger, now)
		}
	case "go":
		if r.opt.Rank != 0 {
			r.beginCapture(h.Trigger, h.ID, true)
		}
	case "evid":
		g := r.pp.cur
		if r.opt.Rank != 0 || g == nil || g.id != h.ID ||
			h.Rank <= 0 || h.Rank >= r.opt.Ranks ||
			h.Total <= 0 || h.Total > maxEvidenceChunks || h.Seq < 0 || h.Seq >= h.Total {
			return
		}
		if g.parts[h.Rank] == nil {
			g.parts[h.Rank] = make([][]byte, h.Total)
		}
		parts := g.parts[h.Rank]
		if h.Total != len(parts) || parts[h.Seq] != nil {
			return
		}
		parts[h.Seq] = append([]byte(nil), payload...)
		g.got[h.Rank]++
		if g.got[h.Rank] == h.Total {
			var blob []byte
			for _, p := range parts {
				blob = append(blob, p...)
			}
			g.blobs[h.Rank] = blob
			delete(g.parts, h.Rank)
		}
	}
}

// postEvidence ships a finished capture to rank 0 in bounded chunks.
func (r *Recorder) postEvidence(ev captured) {
	total := (len(ev.blob) + chunkPayload - 1) / chunkPayload
	if total == 0 {
		total = 1
	}
	if total > maxEvidenceChunks {
		// Rank 0 would drop it: keep the evidence as a local bundle.
		go r.writeLocal(ev.trig, ev.blob)
		return
	}
	for seq := 0; seq < total; seq++ {
		lo := seq * chunkPayload
		hi := lo + chunkPayload
		if hi > len(ev.blob) {
			hi = len(ev.blob)
		}
		r.post(0, wireMsg{
			Kind: "evid", ID: ev.id, Rank: r.opt.Rank, Seq: seq, Total: total,
		}, ev.blob[lo:hi])
	}
}

// beginCapture starts the guarded local capture goroutine. force skips the
// cooldown (used for rank-0-ordered captures, which are already paced).
func (r *Recorder) beginCapture(t Trigger, id string, force bool) {
	now := time.Now()
	if !r.g.begin(now, r.opt.Cooldown, force) {
		return
	}
	go func() {
		blob := r.captureLocal(t, true)
		r.g.end(time.Now())
		if r.hasLayer.Load() && id != "" {
			select {
			case r.evidCh <- captured{id: id, trig: t, blob: blob}:
			default:
			}
			return
		}
		r.writeLocal(t, blob)
	}()
}

// writeLocal writes a bundle holding only this rank's evidence — the
// single-rank / no-layer path, and the SIGQUIT emergency path.
func (r *Recorder) writeLocal(t Trigger, blob []byte) {
	id := fmt.Sprintf("incident-%d-r%d", time.Now().UnixNano(), r.opt.Rank)
	path, err := writeBundle(r.opt.Dir, id, t, r.opt.Ranks, map[int][]byte{r.opt.Rank: blob})
	if err != nil {
		fmt.Fprintf(os.Stderr, "incident: rank %d: bundle write failed: %v\n", r.opt.Rank, err)
		return
	}
	r.noteBundle(path, t, 1)
}

// finishBundle assembles and writes rank 0's gathered bundle (runs on its
// own goroutine — tar+gzip of several ranks' evidence is not pump work).
func (r *Recorder) finishBundle(g *gather) {
	path, err := writeBundle(r.opt.Dir, g.id, g.trig, r.opt.Ranks, g.blobs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incident: bundle write failed: %v\n", err)
		return
	}
	r.noteBundle(path, g.trig, len(g.blobs))
}

func (r *Recorder) noteBundle(path string, t Trigger, gotRanks int) {
	r.bundles.Add(1)
	r.lastPath.Store(path)
	fmt.Fprintf(os.Stderr, "incident: rank %d wrote bundle %s (trigger=%s, %d/%d ranks)\n",
		r.opt.Rank, path, t.Kind, gotRanks, r.opt.Ranks)
	r.opt.Monitor.OpsEvent("incident_bundle", map[string]any{
		"rank": r.opt.Rank, "path": path, "trigger": t.Kind,
		"detail": t.Detail, "got_ranks": gotRanks, "ranks": r.opt.Ranks,
	})
}

// watch is the local-mode fallback: with no layer bound, triggers become
// local-only bundles. With a layer bound it does nothing — Pump owns the
// protocol.
func (r *Recorder) watch() {
	defer close(r.done)
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			if r.hasLayer.Load() {
				continue
			}
			select {
			case trig := <-r.trigCh:
				r.beginCapture(trig, "", false)
			default:
			}
		}
	}
}

// CaptureSync runs a full local capture synchronously and writes a
// local-only bundle, bypassing channels and the pump — the SIGQUIT
// emergency path (withCPU=false: the process is about to die) and tests.
// Returns the bundle path ("" when coalesced or failed).
func (r *Recorder) CaptureSync(t Trigger, withCPU bool) string {
	if r == nil {
		return ""
	}
	now := time.Now()
	if !r.g.begin(now, r.opt.Cooldown, false) {
		return ""
	}
	blob := r.captureLocal(t, withCPU)
	r.g.end(time.Now())
	id := fmt.Sprintf("incident-%d-r%d", now.UnixNano(), r.opt.Rank)
	path, err := writeBundle(r.opt.Dir, id, t, r.opt.Ranks, map[int][]byte{r.opt.Rank: blob})
	if err != nil {
		fmt.Fprintf(os.Stderr, "incident: rank %d: bundle write failed: %v\n", r.opt.Rank, err)
		return ""
	}
	r.noteBundle(path, t, 1)
	return path
}
