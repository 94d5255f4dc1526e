package serve

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"lcigraph/internal/graph"
)

// A machine is one query's round-structured state: need() names the global
// vertices whose out-adjacency the next round requires (empty means the
// query is finished), advance() consumes that adjacency — adj[i] is the
// out-neighbor list of need()[i], in any order, with every id below the
// graph size — and result() encodes the answer once finished.
//
// advance must treat adj as read-only and keep no reference to it: the
// lists are views into the owner's resident graph and into the query's
// reply buffer, which the next round overwrites. need()'s slice belongs to
// the machine and stays valid until the next advance.
//
// Machines are deterministic: need() returns vertices in ascending order,
// and no answer depends on the order within a neighbor list. The
// distributed coordinator and the single-host Oracle therefore produce
// bit-identical results from the same graph, which is what the
// exactly-once serving tests assert.
//
// Per-query state is dense, indexed by global vertex id: O(N) memory per
// resident query — about 21 B × N for PPR and 1 B × N for BFS (on a
// 4096-vertex graph with 64 resident queries, at most ~5.3 MiB) — in
// exchange for array updates instead of hash-map writes on every edge. A
// finished machine is cleared and reused by a later query of its kind
// (machinePool), so steady-state serving allocates none of it.
type machine interface {
	need() []uint32
	advance(adj [][]uint32)
	result() []byte
}

// machinePool starts query machines, reusing finished ones. At most max
// finished machines (BFS and PPR together) wait in it, so it retains no
// more dense state than max resident queries hold. The zero pool retains
// nothing.
type machinePool struct {
	max int
	bfs []*bfsMachine
	ppr []*pprMachine
}

// start validates a query against the graph size and starts its machine:
// the one path the coordinator and the Oracle share.
func (mp *machinePool) start(q Query, globalN int, cfg *Config) (machine, error) {
	if int(q.A) >= globalN {
		return nil, fmt.Errorf("vertex %d out of range (graph has %d)", q.A, globalN)
	}
	switch q.Op {
	case OpKHop:
		if int(q.B) > cfg.MaxHops {
			return nil, fmt.Errorf("k=%d exceeds the %d-hop limit", q.B, cfg.MaxHops)
		}
		m := take(&mp.bfs)
		m.reset(q.A, globalN, int(q.B), Unreachable, false)
		return m, nil
	case OpDist:
		if int(q.B) >= globalN {
			return nil, fmt.Errorf("vertex %d out of range (graph has %d)", q.B, globalN)
		}
		m := take(&mp.bfs)
		m.reset(q.A, globalN, cfg.MaxRounds, q.B, true)
		return m, nil
	case OpPPR:
		if q.B == 0 {
			return nil, fmt.Errorf("ppr topN must be positive")
		}
		m := take(&mp.ppr)
		m.reset(q.A, globalN, int(q.B), cfg)
		return m, nil
	default:
		return nil, fmt.Errorf("unknown op %d", q.Op)
	}
}

// put returns a finished machine for reuse, or drops it when the pool is
// full.
func (mp *machinePool) put(m machine) {
	if len(mp.bfs)+len(mp.ppr) >= mp.max {
		return
	}
	switch m := m.(type) {
	case *bfsMachine:
		mp.bfs = append(mp.bfs, m)
	case *pprMachine:
		mp.ppr = append(mp.ppr, m)
	}
}

// take pops the last element of a free list, or returns a new zero value.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// zeroed returns s cleared if it has length n, else a new zeroed slice.
func zeroed[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	clear(s)
	return s
}

// bfsMachine runs breadth-first frontier expansion: the k-hop neighborhood
// count (hasTarget false) and the point-to-point hop distance (hasTarget
// true, stops early when target joins the frontier).
type bfsMachine struct {
	visited   []bool // by global id
	nVisited  int
	frontier  []uint32 // sorted; the vertices need() exposes
	next      []uint32 // the other frontier buffer, filled by advance
	depth     int
	maxDepth  int
	target    uint32
	hasTarget bool
	foundAt   int // depth at which target was reached; -1 while unseen
}

func (m *bfsMachine) reset(src uint32, globalN, maxDepth int, target uint32, hasTarget bool) {
	m.visited = zeroed(m.visited, globalN)
	m.visited[src] = true
	m.nVisited = 1
	m.frontier = append(m.frontier[:0], src)
	m.depth = 0
	m.maxDepth = maxDepth
	m.target = target
	m.hasTarget = hasTarget
	m.foundAt = -1
	if hasTarget && src == target {
		m.foundAt = 0
		m.frontier = m.frontier[:0]
	}
}

func (m *bfsMachine) need() []uint32 {
	if m.depth >= m.maxDepth || (m.hasTarget && m.foundAt >= 0) {
		return nil
	}
	return m.frontier
}

func (m *bfsMachine) advance(adj [][]uint32) {
	next := m.next[:0]
	for _, l := range adj {
		for _, u := range l {
			if !m.visited[u] {
				m.visited[u] = true
				next = append(next, u)
			}
		}
	}
	m.nVisited += len(next)
	m.depth++
	slices.Sort(next)
	m.frontier, m.next = next, m.frontier
	if m.hasTarget && m.foundAt < 0 && m.visited[m.target] {
		m.foundAt = m.depth
	}
}

func (m *bfsMachine) result() []byte {
	var b [4]byte
	if m.hasTarget {
		d := Unreachable
		if m.foundAt >= 0 {
			d = uint32(m.foundAt)
		}
		binary.LittleEndian.PutUint32(b[:], d)
	} else {
		binary.LittleEndian.PutUint32(b[:], uint32(m.nVisited))
	}
	return b[:]
}

// pprMachine is single-source personalized PageRank by batched residual
// push: each round pushes every vertex whose residual has reached eps, in
// ascending order, moving alpha of it into the score and spreading the rest
// over the out-neighbors. The result is independent of how the adjacency
// was fetched, and the float arithmetic of the ascending batch order is
// deterministic without sorting any neighbor list: one pushed vertex gives
// every neighbor the same share, so the additions into any one residual
// happen in the same sequence whatever the list order.
type pprMachine struct {
	res     []float64 // residual by global id
	score   []float64 // score by global id
	stamp   []uint32  // round in which a vertex last joined touched
	scored  []bool    // by global id: pushed at least once (a score can underflow to 0)
	touched []uint32  // vertices whose residual changed last round
	order   []uint32  // scored vertices, in first-push order
	batch   []uint32  // this round's pushes: touched with res ≥ eps, sorted

	topN      int
	round     int
	maxRounds int
	alpha     float64
	eps       float64
}

func (m *pprMachine) reset(src uint32, globalN, topN int, cfg *Config) {
	m.res = zeroed(m.res, globalN)
	m.score = zeroed(m.score, globalN)
	m.stamp = zeroed(m.stamp, globalN)
	m.scored = zeroed(m.scored, globalN)
	m.touched = append(m.touched[:0], src)
	m.order = m.order[:0]
	m.batch = m.batch[:0]
	m.topN = topN
	m.round = 0
	m.maxRounds = cfg.MaxRounds
	m.alpha = cfg.PPRAlpha
	m.eps = cfg.PPREps
	m.res[src] = 1
}

// need returns the touched vertices whose residual reached eps. A vertex
// not touched last round either was pushed (residual 0) or was below eps
// and unchanged, so no scan of all residuals is needed.
func (m *pprMachine) need() []uint32 {
	if m.round >= m.maxRounds {
		return nil
	}
	m.batch = m.batch[:0]
	for _, v := range m.touched {
		if m.res[v] >= m.eps {
			m.batch = append(m.batch, v)
		}
	}
	slices.Sort(m.batch)
	return m.batch
}

func (m *pprMachine) advance(adj [][]uint32) {
	m.round++
	stamp := uint32(m.round)
	m.touched = m.touched[:0]
	for i, v := range m.batch {
		rv := m.res[v]
		m.res[v] = 0
		if !m.scored[v] {
			m.scored[v] = true
			m.order = append(m.order, v)
		}
		m.score[v] += m.alpha * rv
		l := adj[i]
		if len(l) == 0 {
			continue // dangling vertex: its residual mass retires
		}
		share := (1 - m.alpha) * rv / float64(len(l))
		for _, u := range l {
			m.res[u] += share
			if m.stamp[u] != stamp {
				m.stamp[u] = stamp
				m.touched = append(m.touched, u)
			}
		}
	}
}

// result ranks the scored vertices in place: order is not needed again.
func (m *pprMachine) result() []byte {
	top := m.order
	slices.SortFunc(top, func(a, b uint32) int {
		switch sa, sb := m.score[a], m.score[b]; {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	if len(top) > m.topN {
		top = top[:m.topN]
	}
	b := make([]byte, 4+12*len(top))
	binary.LittleEndian.PutUint32(b, uint32(len(top)))
	for i, v := range top {
		binary.LittleEndian.PutUint32(b[4+12*i:], v)
		binary.LittleEndian.PutUint64(b[8+12*i:], math.Float64bits(m.score[v]))
	}
	return b
}

// DecodePPR unpacks a PPR result payload into (vertex, score) pairs.
func DecodePPR(payload []byte) ([]uint32, []float64, error) {
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("serve: ppr payload %d bytes", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+12*n {
		return nil, nil, fmt.Errorf("serve: ppr payload %d bytes for %d entries", len(payload), n)
	}
	vs := make([]uint32, n)
	ss := make([]float64, n)
	for i := 0; i < n; i++ {
		vs[i] = binary.LittleEndian.Uint32(payload[4+12*i:])
		ss[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8+12*i:]))
	}
	return vs, ss, nil
}

// DecodeU32 unpacks a KHop/Dist result payload.
func DecodeU32(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("serve: u32 payload %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// Oracle answers queries against the whole graph in one process — the
// single-host reference the distributed serving path must match exactly
// (same machines, adjacency read straight from the CSR).
type Oracle struct {
	G   *graph.Graph
	Cfg Config
}

// NewOracle builds an oracle with defaulted config (the config must match
// the server's for PPR results to agree).
func NewOracle(g *graph.Graph, cfg Config) *Oracle {
	cfg.fill()
	return &Oracle{G: g, Cfg: cfg}
}

// Answer runs one query to completion locally and returns the result
// payload (the same bytes a StatusOK response would carry).
func (o *Oracle) Answer(q Query) ([]byte, error) {
	var mp machinePool
	m, err := mp.start(q, o.G.N, &o.Cfg)
	if err != nil {
		return nil, err
	}
	var adj [][]uint32
	for verts := m.need(); len(verts) > 0; verts = m.need() {
		adj = slices.Grow(adj[:0], len(verts))[:len(verts)]
		for i, v := range verts {
			adj[i] = o.G.Neighbors(int(v))
		}
		m.advance(adj)
	}
	return m.result(), nil
}
