// Package bipartite implements the bipartite consistency graph V_{D,g(D)}
// machinery of "k-Anonymization Revisited": maximum matchings via
// Hopcroft–Karp and the computation of matches — edges that can be
// completed to a perfect matching (Definition 4.6) — which underlies
// global (1,k)-anonymity. Production reaches it twice: Algorithm 6
// (internal/core) through Growing, and the audit's matching of a release
// that is not positional (internal/anonymity) through HopcroftKarp. The
// audit reads every other match off the row-class quotient and never
// builds a Graph.
//
// Two match-computation methods are provided. The paper's formulation
// removes each edge's endpoints and re-runs Hopcroft–Karp, costing
// O(√n·m) per edge (AllowedEdgesNaive, a test oracle in naive_test.go).
// The fast method (AllowedEdges) computes one perfect matching, orients
// matched edges right→left and unmatched edges left→right, and observes
// that an unmatched edge lies in some perfect matching iff its endpoints
// share a strongly connected component — a single Tarjan SCC pass,
// O(n + m) after the matching.
//
// Growing serves a graph that only gains edges, as Algorithm 6's does: it
// keeps the one perfect matching of its first SCC pass, remembers which
// left nodes that pass and later searches certified to share a component,
// and finds a node's matches from those components or by a search from
// that node (growing.go).
package bipartite

import (
	"fmt"
	"slices"
)

// Graph is a bipartite graph with nLeft left nodes (original records) and
// nRight right nodes (generalized records). Edges are stored as adjacency
// lists on the left side.
type Graph struct {
	nLeft, nRight int
	adj           [][]int
	nEdges        int
}

// FromAdjacency returns the graph whose left node u has the right
// neighbours adj[u], in that order. The graph uses adj itself, not a copy,
// so the caller must not change adj while it uses the graph. It panics on
// an out-of-range neighbour; duplicates must not occur.
func FromAdjacency(nRight int, adj [][]int) *Graph {
	g := &Graph{nLeft: len(adj), nRight: nRight, adj: adj}
	for u, vs := range adj {
		for _, v := range vs {
			if v < 0 || v >= nRight {
				panic(fmt.Sprintf("bipartite: edge (%d,%d) out of range (%d x %d)", u, v, g.nLeft, nRight))
			}
		}
		g.nEdges += len(vs)
	}
	return g
}

// Matching is the result of a maximum-matching computation. MatchL[u] is
// the right node matched to left node u (or -1), MatchR[v] symmetric, and
// Size the number of matched pairs.
type Matching struct {
	MatchL []int
	MatchR []int
	Size   int
}

// IsPerfect reports whether the matching saturates both sides.
func (m *Matching) IsPerfect() bool {
	return m.Size == len(m.MatchL) && m.Size == len(m.MatchR)
}

const inf = int(^uint(0) >> 1)

// HopcroftKarp computes a maximum matching in O(√V · E).
func HopcroftKarp(g *Graph) *Matching {
	matchL := make([]int, g.nLeft)
	matchR := make([]int, g.nRight)
	dist := make([]int, g.nLeft)
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	var queue []int
	size := 0

	bfs := func() bool {
		queue = queue[:0]
		for u := 0; u < g.nLeft; u++ {
			if matchL[u] == -1 {
				dist[u] = 0
				queue = append(queue, u)
			} else {
				dist[u] = inf
			}
		}
		found := false
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range g.adj[u] {
				w := matchR[v]
				if w == -1 {
					found = true
				} else if dist[w] == inf {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		return found
	}

	var dfs func(u int) bool
	dfs = func(u int) bool {
		for _, v := range g.adj[u] {
			w := matchR[v]
			if w == -1 || (dist[w] == dist[u]+1 && dfs(w)) {
				matchL[u] = v
				matchR[v] = u
				return true
			}
		}
		dist[u] = inf
		return false
	}

	for bfs() {
		for u := 0; u < g.nLeft; u++ {
			if matchL[u] == -1 && dfs(u) {
				size++
			}
		}
	}
	return &Matching{MatchL: matchL, MatchR: matchR, Size: size}
}

// AllowedEdges returns, for every left node u, the sorted-by-insertion list
// of right nodes v such that the edge (u, v) can be completed to a perfect
// matching — the matches of Definition 4.6. It returns an error if the
// graph has no perfect matching (then no edge is a match and global
// (1,k)-anonymity is vacuous).
func AllowedEdges(g *Graph) ([][]int, error) {
	allowed, _, err := allowedEdges(g)
	return allowed, err
}

// allowedEdges is AllowedEdges also returning the perfect matching the
// SCC pass was built on.
func allowedEdges(g *Graph) ([][]int, *Matching, error) {
	if g.nLeft != g.nRight {
		return nil, nil, fmt.Errorf("bipartite: sides differ (%d vs %d); no perfect matching", g.nLeft, g.nRight)
	}
	m := HopcroftKarp(g)
	if m.Size != g.nLeft {
		return nil, nil, fmt.Errorf("bipartite: no perfect matching (size %d of %d)", m.Size, g.nLeft)
	}
	// Directed graph: node ids 0..nLeft-1 are left, nLeft..nLeft+nRight-1
	// are right. Unmatched edge u→v, matched edge v→u. Each node's
	// successors keep the order of g's adjacency lists.
	nl, matchL := g.nLeft, m.MatchL
	n := nl + g.nRight
	off := make([]int, n+1)
	for u := 0; u < nl; u++ {
		for _, v := range g.adj[u] {
			if matchL[u] == v {
				off[nl+v+1]++
			} else {
				off[u+1]++
			}
		}
	}
	for x := 1; x <= n; x++ {
		off[x] += off[x-1]
	}
	pos := slices.Clone(off[:n])
	tgt := make([]int, g.nEdges)
	for u := 0; u < nl; u++ {
		for _, v := range g.adj[u] {
			if matchL[u] == v {
				tgt[pos[nl+v]] = u
				pos[nl+v]++
			} else {
				tgt[pos[u]] = nl + v
				pos[u]++
			}
		}
	}
	comp := scc(off, tgt)
	out := make([][]int, nl)
	buf := make([]int, 0, g.nEdges)
	for u := 0; u < nl; u++ {
		start := len(buf)
		for _, v := range g.adj[u] {
			if matchL[u] == v || comp[u] == comp[nl+v] {
				buf = append(buf, v)
			}
		}
		out[u] = buf[start:len(buf):len(buf)]
	}
	return out, m, nil
}

type sccFrame struct {
	node, edge int
}

// scc computes the strongly connected components of the digraph on the
// compressed rows off, tgt (the successors of node x are
// tgt[off[x]:off[x+1]]) with an iterative Tarjan algorithm. It returns the
// component id of every node; ids are dense starting at 0.
func scc(off, tgt []int) []int {
	n := len(off) - 1
	comp := make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int
	var call []sccFrame
	nextIndex, nextComp := 0, 0
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		// A frame's edge is its cursor into tgt.
		call = append(call[:0], sccFrame{start, off[start]})
		index[start] = nextIndex
		low[start] = nextIndex
		nextIndex++
		stack = append(stack, start)
		onStack[start] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			u := f.node
			if f.edge < off[u+1] {
				v := tgt[f.edge]
				f.edge++
				if index[v] == -1 {
					index[v] = nextIndex
					low[v] = nextIndex
					nextIndex++
					stack = append(stack, v)
					onStack[v] = true
					call = append(call, sccFrame{v, off[v]})
				} else if onStack[v] && index[v] < low[u] {
					low[u] = index[v]
				}
				continue
			}
			// Leaving u.
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nextComp
					if w == u {
						break
					}
				}
				nextComp++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].node
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
		}
	}
	return comp
}
