// Package serve keeps a partitioned graph resident across the ranks of an
// SPMD job and answers a continuous stream of client queries over the
// communication runtime (DESIGN.md §14) — the serving-shaped counterpart to
// the batch analytics frameworks.
//
// Topology: rank 0 is the coordinator. It admits client queries (k-hop
// neighborhood size, point-to-point BFS distance, personalized PageRank
// push), runs each as a round-structured state machine, and fetches the
// adjacency each round needs from the owning ranks as batched sub-queries
// on the reserved control tags [cluster.ServeTagLo, cluster.CollectiveTag).
// The partition policy must be EdgeCut: the owner of a vertex holds all of
// its out-edges, so one sub-query to one rank answers a vertex completely.
//
// Admission control is the serving-side face of the transport's credit
// machinery: a bounded number of queries may be resident (globally and per
// client), and anything beyond that is shed immediately with a retry-after
// hint rather than queued — the same shed-don't-buffer stance the layers
// take with ErrResource. Results are cached in an LRU keyed by the query
// triple, with hit/miss telemetry.
//
// Shutdown is a graceful drain: InitiateDrain sheds new admissions, lets
// resident queries complete, then broadcasts a stop control to the worker
// ranks, so every admitted query is answered exactly once even when the
// transport underneath is dropping and reordering datagrams.
package serve

import (
	"slices"
	"sync/atomic"
	"time"

	"lcigraph/internal/cluster"
	"lcigraph/internal/comm"
	lci "lcigraph/internal/core"
	"lcigraph/internal/partition"
	"lcigraph/internal/telemetry"
	"lcigraph/internal/tracing"
)

// Reserved base tags (all within [cluster.ServeTagLo, cluster.CollectiveTag)).
const (
	tagQuery = cluster.ServeTagLo     // coordinator → owner: adjacency request
	tagReply = cluster.ServeTagLo + 1 // owner → coordinator: adjacency reply
	tagCtrl  = cluster.ServeTagLo + 2 // coordinator → owner: drain control
)

// Config tunes one serving job. The zero value selects the defaults; every
// rank must use the same query-semantics fields (MaxHops, MaxRounds,
// PPRAlpha, PPREps), and an Oracle checked against the job must too.
type Config struct {
	MaxInFlight  int    // resident-query bound at the coordinator (default 64)
	MaxPerClient int    // resident-query bound per client connection (default 8)
	CacheSize    int    // LRU result-cache entries (default 1024; <0 disables)
	RetryAfterMs uint32 // shed responses carry this retry hint (default 50)

	MaxHops   int     // k-hop radius bound (default 8)
	MaxRounds int     // BFS/PPR round bound (default 64)
	PPRAlpha  float64 // PPR teleport probability (default 0.15)
	PPREps    float64 // PPR residual push threshold (default 1e-4)

	Reg    *telemetry.Registry // nil: telemetry off
	Tracer *tracing.Tracer     // nil: tracing off

	// Health, if set, gets a turn on the layer-owning goroutine every loop
	// iteration for its reserved-tag heartbeat traffic (health.Monitor's
	// Pump; it rate-limits itself, so the per-iteration cost is a clock
	// read).
	Health HealthPump
}

// HealthPump is the serving loop's hook into the health monitor.
type HealthPump interface{ Pump() }

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxPerClient <= 0 {
		c.MaxPerClient = 8
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.RetryAfterMs == 0 {
		c.RetryAfterMs = 50
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 8
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 64
	}
	if c.PPRAlpha <= 0 {
		c.PPRAlpha = 0.15
	}
	if c.PPREps <= 0 {
		c.PPREps = 1e-4
	}
}

// pending is one resident query at the coordinator.
type pending struct {
	c     *clientConn
	reqid uint32
	q     Query
	m     machine
	start time.Time
	qid   uint32 // 24-bit coordinator sequence
	tid   uint64 // tracing id: MsgID(coordinator rank, qid)
	round int

	verts     []uint32   // this round's need, ascending
	adj       [][]uint32 // aligned to verts: views into Server.gadj and flat
	flat      []uint32   // this round's remote neighbor lists, copied from replies
	slots     [][]int    // by peer rank: indices into verts still owed this round
	remaining int        // outstanding peer replies this round
}

// Server is one rank's half of a serving job: the coordinator loop on rank
// 0, the adjacency-owner loop everywhere else. All layer traffic stays on
// the goroutine that calls Run, per the layer's single-driver contract.
type Server struct {
	h   *cluster.Host
	pt  *partition.Partitioned
	hg  *partition.HostGraph
	cfg Config
	// gadj is hg.Local.Edges translated to global ids: localAdj's lists
	// are subslices of it.
	gadj []uint32

	layer comm.AsyncLayer
	met   *metrics

	incoming chan request
	done     chan struct{} // closed when the loop exits
	wake     chan struct{} // one slot: InitiateDrain wakes a parked coordinator
	// bell is the layer's arrival doorbell (comm.Doorbell); nil keeps the
	// loops on lci.IdleBackoff.
	bell <-chan struct{}

	draining atomic.Bool
	inflight atomic.Int64

	// Coordinator-loop state (touched only from Run's goroutine).
	seq      uint32
	queries  map[uint32]*pending
	cache    *lru
	free     []*pending // finished queries kept for reuse, at most MaxInFlight
	machines machinePool
}

// New builds this rank's server. The partition must have been built with
// partition.EdgeCut (owners hold all out-edges of their vertices); every
// rank passes the same deterministic Partitioned.
func New(h *cluster.Host, pt *partition.Partitioned, cfg Config) *Server {
	if pt.Policy != partition.EdgeCut {
		panic("serve: partition policy must be EdgeCut (owner holds all out-edges)")
	}
	al, ok := h.Layer.(comm.AsyncLayer)
	if !ok {
		panic("serve: communication layer does not support async tags (need LCILayer)")
	}
	cfg.fill()
	s := &Server{
		h:        h,
		pt:       pt,
		hg:       pt.Hosts[h.Rank],
		cfg:      cfg,
		layer:    al,
		incoming: make(chan request, 256),
		done:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
		queries:  map[uint32]*pending{},
		cache:    newLRU(cfg.CacheSize),
		machines: machinePool{max: cfg.MaxInFlight},
	}
	s.gadj = make([]uint32, len(s.hg.Local.Edges))
	for i, u := range s.hg.Local.Edges {
		s.gadj[i] = s.hg.L2G[u]
	}
	if d, ok := h.Layer.(comm.Doorbell); ok {
		s.bell = d.Arrivals()
	}
	s.met = newMetrics(cfg.Reg, s.inflight.Load)
	return s
}

// InitiateDrain begins a graceful shutdown: new queries are shed, resident
// ones run to completion, then the coordinator stops the worker ranks. Safe
// from any goroutine (signal handlers, tests). On worker ranks it is a
// no-op — the stop control arrives from the coordinator.
func (s *Server) InitiateDrain() {
	s.draining.Store(true)
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Done is closed when this rank's serving loop has exited.
func (s *Server) Done() <-chan struct{} { return s.done }

// Run drives this rank's serving loop until drain completes. It must be
// called from the goroutine that owns the layer (the cluster.RunRank body).
func (s *Server) Run() {
	defer close(s.done)
	if s.h.Rank == 0 {
		s.runCoordinator()
	} else {
		s.runWorker()
	}
}

// parkBackstop bounds how long an idle serving loop stays parked with no
// doorbell ring, client request or drain wake-up. Nothing should need it:
// every arrival rings the doorbell. It keeps Health.Pump on cadence and
// bounds the cost of a ring the loop did not see.
const parkBackstop = 5 * time.Millisecond

// idler is how a serving loop waits once an iteration found no work. With
// the layer's doorbell it parks at once in one select on the doorbell, the
// loop's other wake-ups and a backstop timer; without one it keeps
// lci.IdleBackoff (yields, then ~1 ms sleeps).
type idler struct {
	bell  <-chan struct{}
	timer *time.Timer
	parks *telemetry.Counter
	idle  int // IdleBackoff streak, used only without a doorbell
}

func (s *Server) newIdler() *idler {
	t := time.NewTimer(parkBackstop)
	t.Stop()
	return &idler{bell: s.bell, timer: t, parks: s.met.parks}
}

// wait is called at the end of each loop iteration. If the iteration did no
// work it blocks until the doorbell rings, the backstop fires, or a request
// (nil channels never fire) arrives on incoming or wake; a request taken
// from incoming is returned for the caller to handle.
func (w *idler) wait(worked bool, incoming <-chan request, wake <-chan struct{}) (request, bool) {
	if w.bell == nil {
		w.idle = lci.IdleBackoff(w.idle, worked)
		return request{}, false
	}
	if worked {
		return request{}, false
	}
	w.parks.Inc()
	w.timer.Reset(parkBackstop)
	var r request
	got := false
	select {
	case <-w.bell:
	case r = <-incoming:
		got = true
	case <-wake:
	case <-w.timer.C:
	}
	// Stop, and drop a fire that raced the wake-up, so the next Reset
	// starts clean.
	w.timer.Stop()
	select {
	case <-w.timer.C:
	default:
	}
	return r, got
}

// runCoordinator is rank 0's loop: admit client queries, scatter adjacency
// sub-queries, absorb replies, advance machines, respond.
func (s *Server) runCoordinator() {
	w := s.newIdler()
	for {
		if s.cfg.Health != nil {
			s.cfg.Health.Pump()
		}
		worked := false
		// Absorb a bounded batch of client requests so reply polling never
		// starves under open-loop load.
	admit:
		for i := 0; i < 64; i++ {
			select {
			case r := <-s.incoming:
				s.handle(r)
				worked = true
			default:
				break admit
			}
		}
		for {
			m, ok := s.layer.RecvTag(tagReply)
			if !ok {
				break
			}
			s.onReply(m)
			worked = true
		}
		if s.draining.Load() && len(s.queries) == 0 {
			// Shed whatever is still queued so every request the loop ever
			// received gets its one response (readers that race the loop's
			// exit see the connection close instead — the client's retry
			// signal, same as a shed).
			for {
				select {
				case r := <-s.incoming:
					s.handle(r)
				default:
					goto stopped
				}
			}
		stopped:
			// Every resident query has answered; nothing can owe us a reply,
			// so the workers' request streams are quiescent and a stop cannot
			// overtake unserved work.
			for p := 0; p < s.h.P; p++ {
				if p != s.h.Rank {
					s.layer.PostTag(p, tagCtrl, encodeCtrl(s.layer.AllocBuf, ctrlStop))
				}
			}
			return
		}
		if r, ok := w.wait(worked, s.incoming, s.wake); ok {
			s.handle(r)
		}
	}
}

// runWorker is a non-coordinator rank's loop: answer adjacency sub-queries
// until the coordinator says stop.
func (s *Server) runWorker() {
	w := s.newIdler()
	for {
		if s.cfg.Health != nil {
			s.cfg.Health.Pump()
		}
		worked := false
		for {
			m, ok := s.layer.RecvTag(tagQuery)
			if !ok {
				break
			}
			s.serveAdj(m)
			worked = true
		}
		if m, ok := s.layer.RecvTag(tagCtrl); ok {
			m.Release()
			return
		}
		w.wait(worked, nil, nil)
	}
}

// handle admits (or sheds) one client request.
func (s *Server) handle(r request) {
	if r.bye {
		// Client disconnected: stop writing to it. Its resident queries
		// still run to completion (their results land in the cache); the
		// responses are dropped at the dead-connection check.
		r.c.markDead()
		return
	}
	if r.c.dead {
		return
	}
	qid := s.seq & tracing.MsgIDMask
	s.seq++
	tid := tracing.MsgID(s.h.Rank, qid)
	s.cfg.Tracer.RecordArg(tracing.EvQueryRecv, -1, 0, 0, uint32(r.q.Op), tid)

	if s.draining.Load() || len(s.queries) >= s.cfg.MaxInFlight ||
		r.c.resident >= s.cfg.MaxPerClient {
		s.met.shed[r.q.Op].Inc()
		s.cfg.Tracer.RecordArg(tracing.EvQueryDone, -1, 0, 0, 2, tid)
		r.c.send(EncodeResponse(r.reqid, StatusShed, ShedPayload(s.cfg.RetryAfterMs)))
		return
	}
	if v, ok := s.cache.get(cacheKey{r.q.Op, r.q.A, r.q.B}); ok {
		s.met.cacheHits.Inc()
		s.met.ok[r.q.Op].Inc()
		s.met.latency[r.q.Op].Observe(int64(time.Since(r.start)))
		s.cfg.Tracer.RecordArg(tracing.EvQueryDone, -1, 0, len(v), 1, tid)
		r.c.send(EncodeResponse(r.reqid, StatusOK, v))
		return
	}
	s.met.cacheMisses.Inc()
	m, err := s.machines.start(r.q, s.pt.GlobalN, &s.cfg)
	if err != nil {
		s.met.errs[r.q.Op].Inc()
		s.cfg.Tracer.RecordArg(tracing.EvQueryDone, -1, 0, 0, 3, tid)
		r.c.send(EncodeResponse(r.reqid, StatusError, []byte(err.Error())))
		return
	}
	p := take(&s.free)
	if p.slots == nil {
		p.slots = make([][]int, s.h.P)
	}
	p.c, p.reqid, p.q, p.m, p.start, p.qid, p.tid = r.c, r.reqid, r.q, m, r.start, qid, tid
	s.queries[qid] = p
	s.inflight.Store(int64(len(s.queries)))
	r.c.resident++
	s.step(p)
}

// step runs p forward: scatter the next round's sub-queries, serving
// self-owned vertices inline, and keep advancing while no remote reply is
// outstanding.
func (s *Server) step(p *pending) {
	for {
		verts := p.m.need()
		if len(verts) == 0 {
			s.finish(p)
			return
		}
		p.verts = verts
		p.adj = slices.Grow(p.adj[:0], len(verts))[:len(verts)]
		p.flat = p.flat[:0]
		for i, v := range verts {
			if owner := s.pt.Owner(v); owner == s.h.Rank {
				p.adj[i] = s.localAdj(v)
			} else {
				p.slots[owner] = append(p.slots[owner], i)
			}
		}
		p.remaining = 0
		for owner, idxs := range p.slots {
			if len(idxs) == 0 {
				continue
			}
			s.layer.PostTag(owner, tagQuery, encodeAdjReq(s.layer.AllocBuf, p.qid, len(idxs),
				func(j int) uint32 { return verts[idxs[j]] }))
			s.met.subqueries.Inc()
			p.remaining++
		}
		s.cfg.Tracer.RecordArg(tracing.EvQueryScatter, -1, 0, len(verts), uint32(p.round), p.tid)
		if p.remaining > 0 {
			return
		}
		p.m.advance(p.adj)
		p.round++
	}
}

// onReply absorbs one adjacency reply into its query's current round, and
// advances the query once the round is complete.
func (s *Server) onReply(m comm.Message) {
	p := s.absorb(m)
	m.Release()
	if p != nil && p.remaining == 0 {
		p.m.advance(p.adj)
		p.round++
		s.step(p)
	}
}

// absorb validates a reply in place and copies its neighbor lists into the
// owning query's flat buffer. It returns the query, or nil when the reply
// was dropped. All reads of m.Data happen here, before the caller releases
// m.
func (s *Server) absorb(m comm.Message) *pending {
	qid, rep, err := parseAdjRep(m.Data, s.pt.GlobalN)
	if err != nil {
		s.met.badReplies.Inc()
		return nil
	}
	p, ok := s.queries[qid]
	if !ok {
		return nil
	}
	idxs := p.slots[m.Peer]
	if len(idxs) == 0 || len(idxs) != rep.len() {
		return nil // stale or malformed; the reliable transport makes this unreachable
	}
	off := len(p.flat)
	p.flat = rep.appendNeighbors(p.flat)
	for j, i := range idxs {
		d := rep.deg(j)
		p.adj[i] = p.flat[off : off+d : off+d]
		off += d
	}
	p.slots[m.Peer] = idxs[:0]
	p.remaining--
	s.cfg.Tracer.RecordArg(tracing.EvQueryGather, m.Peer, 0, len(idxs), uint32(p.round), p.tid)
	return p
}

// finish completes a resident query: cache, respond, account.
func (s *Server) finish(p *pending) {
	res := p.m.result()
	s.cache.put(cacheKey{p.q.Op, p.q.A, p.q.B}, res)
	delete(s.queries, p.qid)
	s.inflight.Store(int64(len(s.queries)))
	p.c.resident--
	s.met.ok[p.q.Op].Inc()
	s.met.latency[p.q.Op].Observe(int64(time.Since(p.start)))
	s.cfg.Tracer.RecordArg(tracing.EvQueryDone, -1, 0, len(res), 1, p.tid)
	p.c.send(EncodeResponse(p.reqid, StatusOK, res))
	s.recycle(p)
}

// recycle returns a finished query's machine and state for reuse. The free
// list holds at most MaxInFlight queries, the most that can be resident.
// Each keeps the slices of its largest round.
func (s *Server) recycle(p *pending) {
	s.machines.put(p.m)
	if len(s.free) >= s.cfg.MaxInFlight {
		return
	}
	*p = pending{adj: p.adj[:0], flat: p.flat[:0], slots: p.slots}
	s.free = append(s.free, p)
}

// serveAdj answers one adjacency sub-query from the resident partition,
// encoding the reply straight from the request bytes and the graph.
func (s *Server) serveAdj(m comm.Message) {
	qid, req, err := parseAdjReq(m.Data)
	if err != nil {
		m.Release()
		return
	}
	peer, n := m.Peer, req.len()
	rep := encodeAdjRep(s.layer.AllocBuf, qid, n, func(i int) []uint32 { return s.localAdj(req.vert(i)) })
	m.Release()
	s.met.served.Inc()
	s.cfg.Tracer.RecordArg(tracing.EvQueryServe, peer, 0, n, 0, tracing.MsgID(peer, qid))
	s.layer.PostTag(peer, tagReply, rep)
}

// localAdj returns the global-id out-neighbors of global vertex v from this
// rank's partition, as a read-only, capacity-capped view of gadj. Under
// EdgeCut every out-edge of an owned vertex is local, so the list is
// complete.
func (s *Server) localAdj(v uint32) []uint32 {
	l, ok := s.hg.G2L(v)
	if !ok {
		return nil
	}
	lo, hi := s.hg.Local.Offsets[l], s.hg.Local.Offsets[l+1]
	return s.gadj[lo:hi:hi]
}
