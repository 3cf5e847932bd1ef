package bipartite

import "fmt"

// This file holds the package's test-only helpers: the graph built edge by
// edge, the edge queries and the copy the tests read graphs back with, SCC
// over adjacency lists, and the paper's per-edge formulation of the
// matches, the oracle of AllowedEdges and Growing.

// New creates an empty bipartite graph.
func New(nLeft, nRight int) *Graph {
	return &Graph{nLeft: nLeft, nRight: nRight, adj: make([][]int, nLeft)}
}

// AddEdge inserts the edge (u, v); duplicate edges must not be added.
func (g *Graph) AddEdge(u, v int) {
	if u < 0 || u >= g.nLeft || v < 0 || v >= g.nRight {
		panic(fmt.Sprintf("bipartite: edge (%d,%d) out of range (%d x %d)", u, v, g.nLeft, g.nRight))
	}
	g.adj[u] = append(g.adj[u], v)
	g.nEdges++
}

// Neighbors returns the right-side neighbours of left node u. The returned
// slice must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// HasEdge reports whether the edge (u, v) is present.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// AllowedEdgesNaive is the paper's per-edge formulation: edge (u, v) is a
// match iff the graph without u and v still has a perfect matching. It runs
// one Hopcroft–Karp per edge and exists as a correctness oracle for
// AllowedEdges.
func AllowedEdgesNaive(g *Graph) ([][]int, error) {
	if !HopcroftKarp(g).IsPerfect() {
		return nil, fmt.Errorf("bipartite: no perfect matching")
	}
	out := make([][]int, g.nLeft)
	for u := 0; u < g.nLeft; u++ {
		for _, v := range g.adj[u] {
			sub := New(g.nLeft-1, g.nRight-1)
			for u2 := 0; u2 < g.nLeft; u2++ {
				if u2 == u {
					continue
				}
				su := u2
				if u2 > u {
					su--
				}
				for _, v2 := range g.adj[u2] {
					if v2 == v {
						continue
					}
					sv := v2
					if v2 > v {
						sv--
					}
					sub.AddEdge(su, sv)
				}
			}
			if HopcroftKarp(sub).IsPerfect() {
				out[u] = append(out[u], v)
			}
		}
	}
	return out, nil
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.nLeft, g.nRight)
	for u, vs := range g.adj {
		c.adj[u] = append([]int(nil), vs...)
	}
	c.nEdges = g.nEdges
	return c
}

// SCC computes strongly connected components of a directed graph given as
// adjacency lists, using an iterative Tarjan algorithm. It returns the
// component id of every node; ids are dense starting at 0.
func SCC(adj [][]int) []int {
	off := make([]int, len(adj)+1)
	var tgt []int
	for x, vs := range adj {
		tgt = append(tgt, vs...)
		off[x+1] = len(tgt)
	}
	return scc(off, tgt)
}
