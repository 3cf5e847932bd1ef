// Package hierarchy implements generalization hierarchies: the collections
// A_j ⊆ P(A_j) of permissible generalized subsets from Definition 3.1 of
// "k-Anonymization Revisited".
//
// Every collection used in the paper (and in k-anonymization practice) is a
// laminar family that contains all singletons and the full domain: any two
// permissible subsets are either disjoint or nested. Such a family is
// exactly a rooted tree whose leaves are the attribute's values and whose
// internal nodes are the non-trivial permissible subsets. Under this view:
//
//   - the closure of a set of values (the minimal permissible subset
//     containing all of them) is the lowest common ancestor of their leaves;
//   - consistency of a value with a generalized entry (b ∈ B) is an
//     ancestor/descendant test, answered in O(1) via Euler-tour intervals;
//   - merging two generalized entries is a pairwise LCA.
//
// The package provides construction from explicit subsets (with laminarity
// validation), from level-wise partitions, and from numeric interval
// groupings, plus the LCA/ancestor machinery that the rest of kanon builds
// on.
package hierarchy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Hierarchy is the generalization hierarchy of a single attribute. Nodes are
// identified by dense ints. Leaves come first: node id v, for
// 0 ≤ v < NumValues, is the singleton {a_v} of the attribute's value id v.
// The root covers the entire domain.
type Hierarchy struct {
	numValues int

	parent   []int   // parent[node] = parent id, -1 for root
	children [][]int // children[node] = child ids
	depth    []int   // depth[node], 0 at root
	size     []int   // size[node] = number of leaves (values) covered
	root     int

	// Euler-tour intervals for O(1) ancestor tests: node u is an ancestor of
	// node v (inclusively) iff tin[u] <= tin[v] && tout[v] <= tout[u].
	tin, tout []int

	// labels[node] for internal nodes (optional, for display/export);
	// leaf labels come from the attribute's domain and are not stored here.
	labels []string

	height int // max depth of any leaf

	// Dense LCA table, built lazily by LCATable (guarded by lcaOnce): entry
	// u*NumNodes()+v is LCA(u, v). Nil when NumNodes()² exceeds
	// LCATableBudget — consumers then fall back to the walk-up LCA.
	lcaOnce sync.Once
	lcaTab  []int32
}

// LCATableBudget caps the dense LCA table at 1<<22 entries per hierarchy
// (16 MiB of int32): beyond ~2048 nodes LCATable returns nil and callers
// keep the O(height) walk-up path. The budget bounds the precomputation
// memory of the flat distance kernel (internal/cluster) per attribute.
const LCATableBudget = 1 << 22

// NumValues returns the number of leaf values in the hierarchy (|A_j|).
func (h *Hierarchy) NumValues() int { return h.numValues }

// NumNodes returns the total number of permissible subsets, including the
// singletons and the full domain.
func (h *Hierarchy) NumNodes() int { return len(h.parent) }

// Root returns the node id of the full domain.
func (h *Hierarchy) Root() int { return h.root }

// Parent returns the parent of node u, or -1 for the root.
func (h *Hierarchy) Parent(u int) int { return h.parent[u] }

// Children returns the child node ids of u (nil for leaves). The returned
// slice must not be modified.
func (h *Hierarchy) Children(u int) []int { return h.children[u] }

// Depth returns the depth of node u (root has depth 0).
func (h *Hierarchy) Depth(u int) int { return h.depth[u] }

// Height returns the maximum leaf depth (the number of generalization levels).
func (h *Hierarchy) Height() int { return h.height }

// Size returns |B|: the number of attribute values covered by node u.
func (h *Hierarchy) Size(u int) int { return h.size[u] }

// IsLeaf reports whether node u is a singleton subset.
func (h *Hierarchy) IsLeaf(u int) bool { return u < h.numValues }

// LeafOf returns the node id of the singleton {a_v} for value id v.
// Leaves are laid out first, so this is the identity on valid value ids.
func (h *Hierarchy) LeafOf(v int) int { return v }

// ValueOf returns the value id of leaf node u; it panics if u is internal.
func (h *Hierarchy) ValueOf(u int) int {
	if !h.IsLeaf(u) {
		panic(fmt.Sprintf("hierarchy: node %d is not a leaf", u))
	}
	return u
}

// Label returns a display label for node u: the leaf's implicit label
// "#v" for leaves (callers usually substitute the attribute's value string),
// or the internal node's configured label.
func (h *Hierarchy) Label(u int) string {
	if h.labels[u] != "" {
		return h.labels[u]
	}
	if h.IsLeaf(u) {
		return fmt.Sprintf("#%d", u)
	}
	return fmt.Sprintf("node%d", u)
}

// SetLabel overrides the display label of node u; generators use this to
// re-label machine-generated interval nodes with human-readable ranges.
func (h *Hierarchy) SetLabel(u int, label string) { h.labels[u] = label }

// IsAncestor reports whether u is an (inclusive) ancestor of v, i.e. the
// subset of u contains the subset of v.
func (h *Hierarchy) IsAncestor(u, v int) bool {
	return h.tin[u] <= h.tin[v] && h.tout[v] <= h.tout[u]
}

// Covers reports whether the subset of node u contains value id v; this is
// the consistency test b ∈ B of Definition 3.3.
func (h *Hierarchy) Covers(u, v int) bool {
	return h.IsAncestor(u, h.LeafOf(v))
}

// LCA returns the lowest common ancestor of nodes u and v: the minimal
// permissible subset containing both. This implements the closure operation
// and the record-sum R + R̄ of Section V.
func (h *Hierarchy) LCA(u, v int) int {
	// The trees here are shallow (a handful of levels), so plain walk-up by
	// depth beats any heavy LCA preprocessing.
	for h.depth[u] > h.depth[v] {
		u = h.parent[u]
	}
	for h.depth[v] > h.depth[u] {
		v = h.parent[v]
	}
	for u != v {
		u = h.parent[u]
		v = h.parent[v]
	}
	return u
}

// LCATable returns the dense nodes×nodes LCA table — entry u*NumNodes()+v
// is LCA(u, v) — or nil when NumNodes()² exceeds LCATableBudget. The table
// is built on first use, cached for the hierarchy's lifetime, and safe for
// concurrent callers; it must not be modified. The flat distance kernel
// (internal/cluster) turns every inner-loop LCA into one load through it.
func (h *Hierarchy) LCATable() []int32 {
	n := h.NumNodes()
	if n*n > LCATableBudget {
		return nil
	}
	h.lcaOnce.Do(func() {
		tab := make([]int32, n*n)
		// Fill the upper triangle by walk-up and mirror it: LCA is
		// symmetric, the diagonal is the identity, and every walk is
		// O(height), so the one-time build is O(nodes²·height) on trees
		// that are only a handful of levels deep.
		for u := 0; u < n; u++ {
			tab[u*n+u] = int32(u)
			for v := u + 1; v < n; v++ {
				l := int32(h.LCA(u, v))
				tab[u*n+v] = l
				tab[v*n+u] = l
			}
		}
		h.lcaTab = tab
	})
	return h.lcaTab
}

// Closure returns the minimal permissible subset containing all the given
// value ids. It panics on an empty input.
func (h *Hierarchy) Closure(values []int) int {
	if len(values) == 0 {
		panic("hierarchy: closure of empty value set")
	}
	node := h.LeafOf(values[0])
	for _, v := range values[1:] {
		node = h.LCA(node, h.LeafOf(v))
	}
	return node
}

// Leaves returns the value ids covered by node u, in ascending order.
func (h *Hierarchy) Leaves(u int) []int {
	var out []int
	stack := []int{u}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if h.IsLeaf(n) {
			out = append(out, h.ValueOf(n))
			continue
		}
		stack = append(stack, h.children[n]...)
	}
	sort.Ints(out)
	return out
}

// Validate checks internal consistency; it is primarily a guard for
// hand-built hierarchies in tests and for specs loaded from disk.
func (h *Hierarchy) Validate() error {
	if h.numValues == 0 {
		return fmt.Errorf("hierarchy: no values")
	}
	if h.size[h.root] != h.numValues {
		return fmt.Errorf("hierarchy: root covers %d of %d values", h.size[h.root], h.numValues)
	}
	for u := range h.parent {
		if u == h.root {
			if h.parent[u] != -1 {
				return fmt.Errorf("hierarchy: root %d has parent %d", u, h.parent[u])
			}
			continue
		}
		p := h.parent[u]
		if p < 0 || p >= len(h.parent) {
			return fmt.Errorf("hierarchy: node %d has invalid parent %d", u, p)
		}
		if h.IsLeaf(p) {
			return fmt.Errorf("hierarchy: leaf %d has a child %d", p, u)
		}
	}
	return nil
}

// String renders the hierarchy as an indented tree, for debugging.
func (h *Hierarchy) String() string {
	var b strings.Builder
	var walk func(u, indent int)
	walk = func(u, indent int) {
		b.WriteString(strings.Repeat("  ", indent))
		fmt.Fprintf(&b, "%s (size %d)\n", h.Label(u), h.size[u])
		for _, c := range h.children[u] {
			walk(c, indent+1)
		}
	}
	walk(h.root, 0)
	return b.String()
}

// finish computes depths, sizes, Euler intervals and height after the
// parent/children structure has been fixed.
func (h *Hierarchy) finish() {
	n := len(h.parent)
	h.depth = make([]int, n)
	h.size = make([]int, n)
	h.tin = make([]int, n)
	h.tout = make([]int, n)
	timer := 0
	// Iterative DFS, visiting children in listed order.
	type frame struct {
		node  int
		child int
	}
	stack := []frame{{h.root, 0}}
	h.depth[h.root] = 0
	h.tin[h.root] = timer
	timer++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(h.children[f.node]) {
			c := h.children[f.node][f.child]
			f.child++
			h.depth[c] = h.depth[f.node] + 1
			h.tin[c] = timer
			timer++
			stack = append(stack, frame{c, 0})
			continue
		}
		// leaving f.node
		h.tout[f.node] = timer
		timer++
		if h.IsLeaf(f.node) {
			h.size[f.node] = 1
			if h.depth[f.node] > h.height {
				h.height = h.depth[f.node]
			}
		} else {
			s := 0
			for _, c := range h.children[f.node] {
				s += h.size[c]
			}
			h.size[f.node] = s
		}
		stack = stack[:len(stack)-1]
	}
}
