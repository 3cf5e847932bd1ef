package bipartite

import (
	"slices"
)

// Growing is a square bipartite graph that only gains edges, held together
// with one perfect matching M of it. It finds the matches at a left node
// (Definition 4.6) with no new matching and no SCC pass after an insertion:
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
// M⁻¹(v) reaches i. As (i, v) ∈ E∖M is itself the arc i → M⁻¹(v), such a
// v has M⁻¹(v) in the strongly connected component (SCC) of i in that
// digraph, and conversely. Growing keeps a union-find over the left nodes
// of pairs certified to share an SCC: the components of the construction's
// SCC pass, then i and M⁻¹(v) for every match v a search returns. An
// insertion only adds arcs, so components only merge and a certified pair
// stays certified. Matches first counts the neighbours certified with i and
// answers from them when there are enough. Otherwise one backward search
// from i over the reverse adjacency lists visits the left nodes that reach
// i. A visited node's whole certified component reaches i with it, so the
// search credits every neighbour held in that component at its first
// visit there. A Growing is not safe for concurrent use.
type Growing struct {
	adj, radj [][]int
	matchL    []int // M(u), the right node matched to left node u
	matchR    []int // M⁻¹(v), the left node matched to right node v
	// comp is the union-find forest of certified components over the left
	// nodes: u is a root iff comp[u] == u.
	comp []int32
	// Search state. seen[u] == stamp marks left node u visited by the
	// current search; held[r] == stamp marks the root r of a certified
	// component that holds M⁻¹(v) for a neighbour v of the start node not
	// yet credited.
	seen, held   []uint32
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
		matchR: m.MatchR,
		comp:   make([]int32, n),
		seen:   make([]uint32, n),
		held:   make([]uint32, n),
		queue:  make([]int, 0, n),
	}
	// The SCC pass's matches certify its components: within an SCC, the
	// left nodes are joined by the pairs u, M⁻¹(v) of its allowed edges.
	for u := range g.comp {
		g.comp[u] = int32(u)
	}
	for u, vs := range allowed {
		for _, v := range vs {
			g.union(u, g.matchR[v])
		}
	}
	return g, allowed, nil
}

// union certifies that left nodes a and b share a component.
func (g *Growing) union(a, b int) {
	if ra, rb := g.find(a), g.find(b); ra != rb {
		g.comp[rb] = ra
	}
}

// find returns the root of u's certified component, halving its path.
func (g *Growing) find(u int) int32 {
	c := g.comp
	for int(c[u]) != u {
		c[u] = c[c[u]]
		u = int(c[u])
	}
	return int32(u)
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
// number of left nodes its search visited: 0 when it answered from the
// certified components without a search. It stops once it has found k:
// the result then holds at least k true matches, though perhaps not all of
// them. With fewer than k it is exactly the set of i's matches. The slice
// is reused by the next call.
func (g *Growing) Matches(i, k int) ([]int, int) {
	ci := g.find(i)
	found := g.credit(g.found[:0], i, ci)
	if len(found) >= k {
		g.found = found
		return found, 0
	}
	g.stamp++
	if g.stamp == 0 {
		clear(g.seen)
		clear(g.held)
		g.stamp = 1
	}
	stamp := g.stamp
	for _, v := range g.adj[i] {
		g.held[g.find(g.matchR[v])] = stamp
	}
	g.held[ci] = 0
	queue := append(g.queue[:0], i)
	g.seen[i] = stamp
	// Every visited x reaches i, and so does every member of x's certified
	// component. x's predecessors are the u with (u, M(x)) ∈ E∖M; u = x,
	// the matched edge, is already seen.
	h := 0
	for ; h < len(queue) && len(found) < k; h++ {
		x := queue[h]
		if r := g.find(x); g.held[r] == stamp {
			g.held[r] = 0
			found = g.credit(found, i, r)
		}
		for _, u := range g.radj[g.matchL[x]] {
			if g.seen[u] != stamp {
				g.seen[u] = stamp
				queue = append(queue, u)
			}
		}
	}
	// i reaches each M⁻¹(v) by the arc of edge (i, v), and M⁻¹(v) reaches
	// i: certify the pair.
	for _, v := range found {
		g.union(i, g.matchR[v])
	}
	g.found, g.queue = found, queue
	return found, h
}

// credit appends to found the right neighbours v of i whose M⁻¹(v) lies in
// the certified component of root r. When r's component reaches i, each
// is a match: i reaches M⁻¹(v) by the arc of edge (i, v), or is M⁻¹(v).
func (g *Growing) credit(found []int, i int, r int32) []int {
	for _, v := range g.adj[i] {
		if g.find(g.matchR[v]) == r {
			found = append(found, v)
		}
	}
	return found
}
