// Package cluster provides the clustering substrate underlying the
// agglomerative algorithms of "k-Anonymization Revisited": clusters of
// records represented by their closures, the generalization cost d(S) of
// eq. (7), the inter-cluster distance functions (8)–(11) of Section V-A.2,
// and an agglomerative engine with nearest-neighbour maintenance that
// implements Algorithm 1 and its modified variant (Algorithm 2).
package cluster

import (
	"fmt"
	"sync"

	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// Space bundles the per-attribute hierarchies and the information-loss
// measure, providing the closure algebra every algorithm in internal/core
// shares: closures of record sets, closure merges (per-attribute LCA), and
// the cluster cost d(S) = c(closure(S)).
type Space struct {
	Hiers   []*hierarchy.Hierarchy
	Measure loss.Measure

	// costs[j][node] materializes Measure.Cost for every hierarchy node, so
	// the engines' inner loops are plain slice lookups.
	costs [][]float64

	// Fused LCA-cost tables for the flat distance kernel, built once per
	// space on first kernel construction (fusedOnce) and shared by every
	// engine run: fused[j][u*nn+v] = costs[j][LCA(u,v)], so the kernel's
	// inner loop resolves a per-attribute cost in one load instead of an
	// LCA walk plus a cost lookup. Entries are nil for attributes whose
	// hierarchy exceeds hierarchy.LCATableBudget; the kernel walks those.
	fusedOnce sync.Once
	fused     [][]float64

	// Root-path cost envelopes and their fused tables, built under
	// fusedOnce: env[j][x] is the least cost over the ancestors-or-self
	// of x, and bound[j][u*nn+v] = env[j][LCA(u,v)] (LCABoundRow). When an
	// attribute's costs never fall along a root path, env[j] is costs[j]
	// and bound[j] is fused[j], shared rather than copied.
	env      [][]float64
	bound    [][]float64
	monotone bool // no attribute's costs fall along a root path
}

// NewSpace validates that the hierarchies and measure agree on the number
// of attributes and that every node cost is ≥ 0 and not NaN, and
// precomputes the per-node cost tables. The cost-bound scans (LCABoundRow
// and its users) add costs in a fixed order and rely on every partial sum
// being at most the whole; a NaN would make every comparison false.
func NewSpace(hiers []*hierarchy.Hierarchy, m loss.Measure) (*Space, error) {
	if len(hiers) == 0 {
		return nil, fmt.Errorf("cluster: no hierarchies")
	}
	if m.NumAttrs() != len(hiers) {
		return nil, fmt.Errorf("cluster: measure covers %d attributes, hierarchies cover %d", m.NumAttrs(), len(hiers))
	}
	costs := make([][]float64, len(hiers))
	for j, h := range hiers {
		costs[j] = make([]float64, h.NumNodes())
		for u := 0; u < h.NumNodes(); u++ {
			c := m.Cost(j, u)
			if !(c >= 0) {
				return nil, fmt.Errorf("cluster: attribute %d node %d costs %v; costs must be ≥ 0 and not NaN", j, u, c)
			}
			costs[j][u] = c
		}
	}
	return &Space{Hiers: hiers, Measure: m, costs: costs}, nil
}

// CostAt returns the per-entry cost of generalizing attribute j to the
// given hierarchy node, from the precomputed table.
func (s *Space) CostAt(j, node int) float64 { return s.costs[j][node] }

// fusedTables returns the per-attribute fused LCA-cost tables (nil entries
// for over-budget attributes), building them on first use. Safe for
// concurrent callers; the tables must not be modified.
func (s *Space) fusedTables() [][]float64 {
	s.fusedOnce.Do(func() {
		r := len(s.Hiers)
		s.fused = make([][]float64, r)
		s.env = make([][]float64, r)
		s.bound = make([][]float64, r)
		s.monotone = true
		for j, h := range s.Hiers {
			env, monotone := rootEnvelope(h, s.costs[j])
			s.env[j] = env
			s.monotone = s.monotone && monotone
			lt := h.LCATable()
			if lt == nil {
				continue
			}
			s.fused[j] = fuseCosts(lt, s.costs[j])
			if monotone {
				s.bound[j] = s.fused[j]
			} else {
				s.bound[j] = fuseCosts(lt, env)
			}
		}
	})
	return s.fused
}

// fuseCosts maps an LCA table through a per-node cost array.
func fuseCosts(lt []int32, cost []float64) []float64 {
	t := make([]float64, len(lt))
	for idx, node := range lt {
		t[idx] = cost[node]
	}
	return t
}

// rootEnvelope returns env[x] = min cost over the ancestors-or-self of x,
// and whether it equals cost everywhere (no node costs more than an
// ancestor), in which case cost itself is returned.
func rootEnvelope(h *hierarchy.Hierarchy, cost []float64) ([]float64, bool) {
	env := make([]float64, len(cost))
	monotone := true
	for x := range env {
		m := cost[x]
		for y := h.Parent(x); y >= 0; y = h.Parent(y) {
			m = min(m, cost[y])
		}
		env[x] = m
		monotone = monotone && m == cost[x]
	}
	if monotone {
		return cost, true
	}
	return env, false
}

// LCACostRow returns the fused cost row of node u for attribute a:
// row[v] = CostAt(a, LCA(u, v)) for every node v of the attribute's
// hierarchy. Leaves come first, so row[value id] is the cost of widening u
// to also cover that value. When the attribute has a fused table the row
// is a read-only slice of it and buf is not touched; for an attribute over
// hierarchy.LCATableBudget the row is filled by walk-up into buf (grown to
// NumNodes when shorter), which is then returned. Whether an attribute is
// tabled is fixed for the Space's lifetime, so a caller may pass the
// previous return value back as buf. Safe for concurrent callers with
// distinct buffers.
//
// Every algorithm of internal/core reads its pair and widening costs
// through these rows: a candidate scan loads the rows of its fixed side
// once, and each candidate then costs one load per attribute.
func (s *Space) LCACostRow(a, u int, buf []float64) []float64 {
	h := s.Hiers[a]
	nn := h.NumNodes()
	if t := s.fusedTables()[a]; t != nil {
		return t[u*nn : (u+1)*nn : (u+1)*nn]
	}
	if cap(buf) < nn {
		buf = make([]float64, nn)
	}
	buf = buf[:nn]
	for v := range buf {
		buf[v] = s.costs[a][h.LCA(u, v)]
	}
	return buf
}

// LCABoundRow is LCACostRow's lower envelope: row[v] is the least
// CostAt(a, x) over the ancestors-or-self x of LCA(u, v). For any node w
// above u, LCA(w, v) is an ancestor-or-self of LCA(u, v), so
// row[v] ≤ CostAt(a, LCA(w, v)): the row bounds from below the cost of
// widening every generalization of u to v, even under a measure whose
// cost falls along some root path. When the attribute's costs never fall
// along a root path the row is LCACostRow's. Tabling, buffer reuse and
// concurrency follow LCACostRow.
func (s *Space) LCABoundRow(a, u int, buf []float64) []float64 {
	h := s.Hiers[a]
	nn := h.NumNodes()
	s.fusedTables()
	if t := s.bound[a]; t != nil {
		return t[u*nn : (u+1)*nn : (u+1)*nn]
	}
	if cap(buf) < nn {
		buf = make([]float64, nn)
	}
	buf = buf[:nn]
	for v := range buf {
		buf[v] = s.env[a][h.LCA(u, v)]
	}
	return buf
}

// Monotone reports whether no attribute's cost falls along a root path:
// then every LCABoundRow entry is the matching LCACostRow entry, so a sum
// of bound rows is the exact cost sum.
func (s *Space) Monotone() bool {
	s.fusedTables()
	return s.monotone
}

// NumAttrs returns the number of attributes r.
func (s *Space) NumAttrs() int { return len(s.Hiers) }

// LeafClosure returns the generalized record whose entries are the leaf
// nodes of the original record — the identity generalization.
func (s *Space) LeafClosure(r table.Record) table.GenRecord {
	g := make(table.GenRecord, len(r))
	for j, v := range r {
		g[j] = s.Hiers[j].LeafOf(v)
	}
	return g
}

// MergeInto sets dst to the per-attribute LCA of dst and src, avoiding an
// allocation in hot loops.
func (s *Space) MergeInto(dst, src table.GenRecord) {
	for j := range dst {
		dst[j] = s.Hiers[j].LCA(dst[j], src[j])
	}
}

// ClosureOf computes the closure of a set of records given by their indices
// into tbl. It panics on an empty set.
func (s *Space) ClosureOf(tbl *table.Table, members []int) table.GenRecord {
	if len(members) == 0 {
		panic("cluster: closure of empty member set")
	}
	g := s.LeafClosure(tbl.Records[members[0]])
	for _, i := range members[1:] {
		for j, v := range tbl.Records[i] {
			g[j] = s.Hiers[j].LCA(g[j], s.Hiers[j].LeafOf(v))
		}
	}
	return g
}

// Consistent reports whether the original record r is consistent with the
// generalized record g (Definition 3.3): r(j) ∈ g(j) for every attribute.
func (s *Space) Consistent(r table.Record, g table.GenRecord) bool {
	for j := range r {
		if !s.Hiers[j].Covers(g[j], r[j]) {
			return false
		}
	}
	return true
}

// Cost returns c(R̄) under the space's measure: the average per-attribute
// generalization cost of the closure.
func (s *Space) Cost(closure table.GenRecord) float64 {
	sum := 0.0
	for j, node := range closure {
		sum += s.costs[j][node]
	}
	return sum / float64(len(closure))
}

// Cluster is a subset of records represented by its closure. Cost caches
// d(S) = c(closure(S)) under the space's measure.
type Cluster struct {
	Closure table.GenRecord
	Members []int
	Cost    float64
}

// NewSingleton builds the singleton cluster {R_i}.
func (s *Space) NewSingleton(tbl *table.Table, i int) *Cluster {
	cl := s.LeafClosure(tbl.Records[i])
	return &Cluster{Closure: cl, Members: []int{i}, Cost: s.Cost(cl)}
}

// NewCluster builds the cluster of the given member indices.
func (s *Space) NewCluster(tbl *table.Table, members []int) *Cluster {
	cl := s.ClosureOf(tbl, members)
	return &Cluster{Closure: cl, Members: append([]int(nil), members...), Cost: s.Cost(cl)}
}

// Size returns |S|.
func (c *Cluster) Size() int { return len(c.Members) }

// Apply writes the cluster's closure into the generalized table for every
// member record.
func (c *Cluster) Apply(g *table.GenTable) {
	for _, i := range c.Members {
		copy(g.Records[i], c.Closure)
	}
}

// ToGenTable converts a clustering into the corresponding generalization
// g(D): every record is replaced by the closure of its cluster.
func ToGenTable(schema *table.Schema, n int, clusters []*Cluster) *table.GenTable {
	g := table.NewGen(schema, n)
	for _, c := range clusters {
		c.Apply(g)
	}
	return g
}
