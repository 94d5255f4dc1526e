// Package partition distributes a graph across hosts using the two policies
// of the paper's systems: Gemini's blocked edge-cut (§II, [7]) and an
// Abelian-style general vertex-cut (the "advanced vertex-cut partitioning
// policy" of §IV, implemented here as a Cartesian/2D vertex cut).
//
// Following §II's proxy model: when an edge (u,v) is assigned to a host, the
// host creates proxies for u and v. Exactly one proxy of each vertex — on
// the host that owns the vertex — is the master; the rest are mirrors. On
// each host, masters are stored contiguously before mirrors, matching the
// in-memory layout of §III-A.
//
// The package also builds the per-peer synchronization index lists used by
// the reduce (mirrors→master) and broadcast (master→mirrors) patterns. The
// lists are constructed in matching order on both sides of every host pair,
// so the communication layers can ship values (plus an updated-bitmap) with
// no per-element indices — the paper's "minimizing communication meta-data".
package partition

import (
	"fmt"
	"sort"
	"sync"

	"lcigraph/internal/graph"
)

// Policy selects the partitioning strategy.
type Policy int

const (
	// EdgeCut is Gemini's blocked edge-cut: contiguous vertex blocks
	// balanced by out-edge count; all out-edges of a vertex live with its
	// owner.
	EdgeCut Policy = iota
	// VertexCut is an Abelian-style Cartesian vertex cut: hosts form an
	// r×c grid and edge (u,v) goes to host (rowBlock(u), colBlock(v)).
	VertexCut
	// EdgeCutByDst assigns edge (u,v) to owner(v) — the placement Gemini's
	// sparse (push) mode uses: a host stores the incoming edges of its
	// owned vertices, and active sources are signalled to the hosts
	// holding their out-edges.
	EdgeCutByDst
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case EdgeCut:
		return "edge-cut"
	case VertexCut:
		return "vertex-cut"
	case EdgeCutByDst:
		return "edge-cut-dst"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// NeedsBroadcast reports whether source-vertex labels must be broadcast
// master→mirrors before a push-style compute phase under this policy (the
// partition-aware communication choice of §II: with an edge-cut all sources
// are masters, so no broadcast is needed).
func (p Policy) NeedsBroadcast() bool { return p == VertexCut }

// HostGraph is one host's partition: local CSR over local vertex ids, the
// master/mirror layout, and per-peer synchronization lists.
type HostGraph struct {
	Host, P int
	GlobalN int

	// Local vertex space: ids [0,NumMasters) are masters, the rest mirrors.
	NumMasters int
	NumLocal   int
	L2G        []uint32 // local → global
	g2l        []uint32 // global → local, length GlobalN; noProxy where none
	OwnerOf    []int    // local id → owning host

	// Local out-edges (both endpoints as local ids).
	Local *graph.Graph

	inOnce  sync.Once
	localIn *graph.Graph

	// MirrorsHere[p] lists OUR local ids that are mirrors whose master
	// lives on peer p (ascending global id). During reduce we send these
	// values to p; during broadcast we receive into them from p.
	MirrorsHere [][]uint32
	// MastersFor[p] lists OUR local master ids that have a mirror on peer
	// p, in the same global order as p's MirrorsHere[Host]. During reduce
	// we combine incoming values from p into these; during broadcast we
	// send their values to p.
	MastersFor [][]uint32
}

// noProxy marks a global id with no proxy on this host in g2l.
const noProxy = ^uint32(0)

// G2L translates a global id to this host's local id; ok is false when the
// vertex has no proxy here or gid is not a vertex of the graph at all.
func (h *HostGraph) G2L(gid uint32) (uint32, bool) {
	if int(gid) >= len(h.g2l) {
		return noProxy, false
	}
	l := h.g2l[gid]
	return l, l != noProxy
}

// IsMaster reports whether local id l is a master proxy.
func (h *HostGraph) IsMaster(l uint32) bool { return int(l) < h.NumMasters }

// LocalIn returns the incoming-edge (CSC) view of this host's edge set,
// built lazily: the same edges as Local, traversable by destination. Pull-
// style operators (e.g. direction-optimizing BFS) scan it to read source
// proxies while writing the destination.
func (h *HostGraph) LocalIn() *graph.Graph {
	h.inOnce.Do(func() { h.localIn = h.Local.Transpose() })
	return h.localIn
}

// Partitioned is the full partitioning result.
type Partitioned struct {
	P       int
	GlobalN int
	Policy  Policy
	Hosts   []*HostGraph
	owners  []int32 // global id → owner host
}

// Owner returns the owning host of global vertex gid.
func (pt *Partitioned) Owner(gid uint32) int { return int(pt.owners[gid]) }

// blockStarts divides n vertices into P contiguous blocks balanced by
// out-degree (Gemini's "tries to balance the assigned edges across hosts").
func blockStarts(g *graph.Graph, parts int) []uint32 {
	total := g.NumEdges() + int64(g.N) // +1 per vertex keeps empty tails balanced
	starts := make([]uint32, parts+1)
	starts[parts] = uint32(g.N)
	target := total / int64(parts)
	var acc int64
	b := 1
	for v := 0; v < g.N && b < parts; v++ {
		acc += int64(g.Degree(v)) + 1
		if acc >= target*int64(b) {
			starts[b] = uint32(v + 1)
			b++
		}
	}
	for ; b < parts; b++ {
		starts[b] = uint32(g.N)
	}
	return starts
}

func blockOf(starts []uint32, v uint32) int {
	// starts is small (P+1); binary search.
	lo, hi := 0, len(starts)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if starts[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// grid returns the most square r×c factorization of p with r ≤ c.
func grid(p int) (int, int) {
	r := 1
	for i := 1; i*i <= p; i++ {
		if p%i == 0 {
			r = i
		}
	}
	return r, p / r
}

// Build partitions g across p hosts under the policy.
func Build(g *graph.Graph, p int, pol Policy) *Partitioned {
	if p < 1 {
		panic("partition: need at least one host")
	}
	pt := &Partitioned{P: p, GlobalN: g.N, Policy: pol, owners: make([]int32, g.N)}

	// Vertex ownership: contiguous degree-balanced blocks under both
	// policies (CVC also assigns masters by block).
	vstarts := blockStarts(g, p)
	for v := 0; v < g.N; v++ {
		pt.owners[v] = int32(blockOf(vstarts, uint32(v)))
	}

	// Edge assignment.
	hostEdges := make([][]graph.Edge, p)
	var rows, cols int
	var rstarts, cstarts []uint32
	if pol == VertexCut {
		rows, cols = grid(p)
		rstarts = blockStarts(g, rows)
		cstarts = blockStarts(g, cols)
	}
	for v := 0; v < g.N; v++ {
		ws := g.NeighborWeights(v)
		for i, d := range g.Neighbors(v) {
			var w uint32
			if ws != nil {
				w = ws[i]
			}
			var h int
			switch pol {
			case EdgeCut:
				h = int(pt.owners[v])
			case EdgeCutByDst:
				h = int(pt.owners[d])
			default:
				h = blockOf(rstarts, uint32(v))*cols + blockOf(cstarts, d)
			}
			hostEdges[h] = append(hostEdges[h], graph.Edge{Src: uint32(v), Dst: d, W: w})
		}
	}

	// Per-host proxy construction.
	present := make([]map[uint32]bool, p) // host → global ids with a proxy
	for h := 0; h < p; h++ {
		set := map[uint32]bool{}
		// All owned vertices are present as masters (contiguous, even if
		// they have no local edges — they may still receive reductions).
		for v := vstarts[h]; v < vstarts[h+1]; v++ {
			set[v] = true
		}
		for _, e := range hostEdges[h] {
			set[e.Src] = true
			set[e.Dst] = true
		}
		present[h] = set
	}

	// mirrorHosts[v] = hosts holding a mirror of v.
	mirrorHosts := make([][]int32, g.N)
	for h := 0; h < p; h++ {
		for v := range present[h] {
			if int(pt.owners[v]) != h {
				mirrorHosts[v] = append(mirrorHosts[v], int32(h))
			}
		}
	}

	pt.Hosts = make([]*HostGraph, p)
	for h := 0; h < p; h++ {
		hg := buildHost(g, pt, h, vstarts, present[h], hostEdges[h])
		pt.Hosts[h] = hg
	}

	// Synchronization lists. For each (master host m, mirror host h) pair
	// the global-id order is ascending on both sides.
	for h := 0; h < p; h++ {
		pt.Hosts[h].MirrorsHere = make([][]uint32, p)
		pt.Hosts[h].MastersFor = make([][]uint32, p)
	}
	for v := uint32(0); int(v) < g.N; v++ {
		m := int(pt.owners[v])
		for _, h32 := range mirrorHosts[v] {
			h := int(h32)
			hg, mg := pt.Hosts[h], pt.Hosts[m]
			lh, _ := hg.G2L(v)
			lm, _ := mg.G2L(v)
			hg.MirrorsHere[m] = append(hg.MirrorsHere[m], lh)
			mg.MastersFor[h] = append(mg.MastersFor[h], lm)
		}
	}
	return pt
}

// buildHost assembles one host's local graph and id maps.
func buildHost(g *graph.Graph, pt *Partitioned, h int, vstarts []uint32,
	present map[uint32]bool, edges []graph.Edge) *HostGraph {

	var masters, mirrors []uint32
	for v := range present {
		if int(pt.owners[v]) == h {
			masters = append(masters, v)
		} else {
			mirrors = append(mirrors, v)
		}
	}
	sort.Slice(masters, func(i, j int) bool { return masters[i] < masters[j] })
	sort.Slice(mirrors, func(i, j int) bool { return mirrors[i] < mirrors[j] })

	hg := &HostGraph{
		Host: h, P: pt.P, GlobalN: g.N,
		NumMasters: len(masters),
		NumLocal:   len(masters) + len(mirrors),
		g2l:        make([]uint32, g.N),
	}
	for i := range hg.g2l {
		hg.g2l[i] = noProxy
	}
	hg.L2G = append(append([]uint32{}, masters...), mirrors...)
	for l, gid := range hg.L2G {
		hg.g2l[gid] = uint32(l)
	}
	hg.OwnerOf = make([]int, hg.NumLocal)
	for l, gid := range hg.L2G {
		hg.OwnerOf[l] = pt.Owner(gid)
	}

	local := make([]graph.Edge, len(edges))
	for i, e := range edges {
		local[i] = graph.Edge{Src: hg.g2l[e.Src], Dst: hg.g2l[e.Dst], W: e.W}
	}
	hg.Local = graph.FromEdges(hg.NumLocal, local)
	return hg
}
