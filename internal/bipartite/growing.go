package bipartite

import (
	"slices"
)

// Growing is a square bipartite graph that only gains edges, held together
// with one perfect matching M of it. It finds the matches at a left node
// (Definition 4.6) by one search from that node, with no new matching and
// no SCC pass after an insertion:
//
//   - The matches are a property of the graph alone: an edge lies in some
//     perfect matching or in none, whichever perfect matching one holds.
//   - Adding an edge keeps every perfect matching perfect, so the M found
//     at construction serves for the graph's whole life, and a match stays
//     a match.
//   - An edge (i, v) ∉ M is a match iff it closes an M-alternating cycle,
//     that is iff the left node M⁻¹(v) reaches i along the arcs
//     u → M⁻¹(w), one per edge (u, w) ∈ E∖M.
//
// So the matches of i are M(i) and the right neighbours v of i whose
// M⁻¹(v) reaches i. One backward search from i over the reverse adjacency
// lists finds those left nodes. A Growing is not safe for concurrent use.
type Growing struct {
	adj, radj [][]int
	matchL    []int // M(u), the right node matched to left node u
	// Search state. seen[u] == stamp marks left node u visited by the
	// current search; nb[v] == stamp marks right node v a neighbour of its
	// start node.
	seen, nb     []uint32
	stamp        uint32
	queue, found []int
}

// NewGrowing computes a perfect matching of the graph whose left node u has
// the right neighbours adj[u] and returns the growing graph with it,
// together with every left node's matches as AllowedEdges lists them. The
// growing graph uses adj itself, not a copy; only its AddEdge may change it
// afterwards. It returns an error when the graph has no perfect matching.
func NewGrowing(nRight int, adj [][]int) (*Growing, [][]int, error) {
	allowed, m, err := allowedEdges(FromAdjacency(nRight, adj))
	if err != nil {
		return nil, nil, err
	}
	deg := make([]int, nRight)
	edges := 0
	for _, vs := range adj {
		for _, v := range vs {
			deg[v]++
		}
		edges += len(vs)
	}
	// The reverse lists share one array, each sized to its degree; a list
	// that outgrows its share moves to an array of its own.
	radj := make([][]int, nRight)
	buf := make([]int, 0, edges)
	for v, d := range deg {
		radj[v] = buf[len(buf) : len(buf) : len(buf)+d]
		buf = buf[:len(buf)+d]
	}
	for u, vs := range adj {
		for _, v := range vs {
			radj[v] = append(radj[v], u)
		}
	}
	n := len(adj)
	g := &Growing{
		adj:    adj,
		radj:   radj,
		matchL: m.MatchL,
		seen:   make([]uint32, n),
		nb:     make([]uint32, nRight),
		queue:  make([]int, 0, n),
	}
	return g, allowed, nil
}

// Neighbors returns the right neighbours of left node u. The returned slice
// must not be modified, and it is valid until the next AddEdge.
func (g *Growing) Neighbors(u int) []int { return g.adj[u] }

// AddEdge inserts the edge (u, v) unless it is present and reports whether
// it did. u's neighbours stay ascending when they were ascending before.
func (g *Growing) AddEdge(u, v int) bool {
	p, found := slices.BinarySearch(g.adj[u], v)
	if found {
		return false
	}
	g.adj[u] = slices.Insert(g.adj[u], p, v)
	g.radj[v] = append(g.radj[v], u)
	return true
}

// Matches returns matches of left node i, in no particular order, and the
// number of left nodes its search visited. It stops once it has found k:
// the result then holds at least k true matches, though perhaps not all of
// them. With fewer than k it is exactly the set of i's matches. The slice
// is reused by the next call.
func (g *Growing) Matches(i, k int) ([]int, int) {
	g.stamp++
	if g.stamp == 0 {
		clear(g.seen)
		clear(g.nb)
		g.stamp = 1
	}
	stamp := g.stamp
	for _, v := range g.adj[i] {
		g.nb[v] = stamp
	}
	found, queue := g.found[:0], append(g.queue[:0], i)
	g.seen[i] = stamp
	// Every visited x reaches i, so (i, M(x)) is a match when it is an edge.
	// x's predecessors are the u with (u, M(x)) ∈ E∖M; u = x, the matched
	// edge, is already seen.
	h := 0
	for ; h < len(queue) && len(found) < k; h++ {
		w := g.matchL[queue[h]]
		if g.nb[w] == stamp {
			found = append(found, w)
		}
		for _, u := range g.radj[w] {
			if g.seen[u] != stamp {
				g.seen[u] = stamp
				queue = append(queue, u)
			}
		}
	}
	g.found, g.queue = found, queue
	return found, h
}
