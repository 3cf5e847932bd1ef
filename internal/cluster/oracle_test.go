package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"kanon/internal/table"
)

// The oracle's cluster arithmetic: a merge builds a new cluster from two,
// never updating either in place as the engine does.

// MergeClosures returns the per-attribute LCA of two closures: the closure
// of the union of the underlying record sets. Neither argument is modified.
func (s *Space) MergeClosures(a, b table.GenRecord) table.GenRecord {
	out := make(table.GenRecord, len(a))
	for j := range a {
		out[j] = s.Hiers[j].LCA(a[j], b[j])
	}
	return out
}

// Merge returns the union cluster A ∪ B.
func (s *Space) Merge(a, b *Cluster) *Cluster {
	cl := s.MergeClosures(a.Closure, b.Closure)
	members := make([]int, 0, len(a.Members)+len(b.Members))
	members = append(members, a.Members...)
	members = append(members, b.Members...)
	return &Cluster{Closure: cl, Members: members, Cost: s.Cost(cl)}
}

// AllDistances returns the paper's four distances plus the Nergiz–Clifton
// asymmetric variant, the distances the tests sweep.
func AllDistances() []Distance { return []Distance{D1{}, D2{}, D3{}, D4{}, NC{}} }

// oracleAgglomerate is Algorithms 1 and 2 as printed: the naive reference
// the engine's equivalence tests compare against. It shares none of the
// engine's machinery — no kernel arena, fused tables, heap, neighbour
// caches, member chains or incremental constraint bookkeeping. Distances
// go through Space's LCA walks and the Distance interface, and every
// constraint check rebinds each Bound from scratch (Reset, Add, Satisfied).
//
// Cluster ids are assigned in push order: the n singletons, then each
// newborn — an unripe merge, or the singletons a shrink evicts, in
// eviction order. Each step scans every ordered pair of live clusters and
// merges the lexicographic (d, i, j) minimum; a merge lists a's members,
// then b's. Closures are immutable, so each cluster's distances to the
// clusters alive at its birth are memoized then; the memo changes no
// result, it only keeps n ≤ 500 fast.
func oracleAgglomerate(s *Space, tbl *table.Table, opt AggloOptions) ([]*Cluster, error) {
	n := tbl.Len()
	if opt.Distance == nil {
		return nil, errors.New("oracle: nil distance")
	}
	if opt.K > n {
		return nil, fmt.Errorf("oracle: k=%d exceeds n=%d", opt.K, n)
	}
	var bounds []Bound
	for _, c := range opt.Constraints {
		if c == nil || c.Trivial() {
			continue
		}
		if len(opt.Sensitive) != n {
			return nil, fmt.Errorf("oracle: %d sensitive values for %d records", len(opt.Sensitive), n)
		}
		b, err := c.Bind(opt.Sensitive)
		if err != nil {
			return nil, err
		}
		bounds = append(bounds, b)
	}
	if n == 0 {
		return nil, nil
	}
	if opt.K <= 1 && len(bounds) == 0 {
		out := make([]*Cluster, n)
		for i := range out {
			out[i] = s.NewSingleton(tbl, i)
		}
		return out, nil
	}

	satisfies := func(members []int, extra ...int) bool {
		for _, b := range bounds {
			b.Reset()
			for _, ri := range members {
				b.Add(ri)
			}
			for _, ri := range extra {
				b.Add(ri)
			}
			if !b.Satisfied() {
				return false
			}
		}
		return true
	}
	dist := func(a, b *Cluster) float64 {
		u := s.MergeClosures(a.Closure, b.Closure)
		return opt.Distance.Eval(a.Size(), b.Size(), a.Size()+b.Size(), a.Cost, b.Cost, s.Cost(u))
	}

	// to[j] = dist(c, cluster j) and from[j] = dist(cluster j, c) for
	// every j alive when c was pushed (j < c's id).
	type node struct {
		c        *Cluster
		to, from []float64
	}
	var nodes []node
	var live []int // ascending ids
	push := func(c *Cluster) {
		nd := node{c: c, to: make([]float64, len(nodes)), from: make([]float64, len(nodes))}
		for _, j := range live {
			nd.to[j] = dist(c, nodes[j].c)
			nd.from[j] = dist(nodes[j].c, c)
		}
		live = append(live, len(nodes))
		nodes = append(nodes, nd)
	}
	pairDist := func(i, j int) float64 {
		if j < i {
			return nodes[i].to[j]
		}
		return nodes[j].from[i]
	}
	for i := 0; i < n; i++ {
		push(s.NewSingleton(tbl, i))
	}

	// shrink is Algorithm 2's step: evict the member maximizing
	// dist(Ŝ, Ŝ\{R̂_i}), the first on ties, while |Ŝ| > K and some eviction
	// keeps every constraint satisfied.
	shrink := func(c *Cluster) []int {
		var removed []int
		for c.Size() > max(opt.K, 1) {
			best, bestD := -1, math.Inf(-1)
			var bestRest *Cluster
			for mi := range c.Members {
				rest := slices.Delete(slices.Clone(c.Members), mi, mi+1)
				if !satisfies(rest) {
					continue
				}
				rc := s.NewCluster(tbl, rest)
				if d := opt.Distance.Eval(c.Size(), rc.Size(), c.Size(), c.Cost, rc.Cost, c.Cost); d > bestD {
					best, bestD, bestRest = mi, d, rc
				}
			}
			if best < 0 {
				break
			}
			removed = append(removed, c.Members[best])
			c.Members, c.Closure, c.Cost = bestRest.Members, bestRest.Closure, bestRest.Cost
		}
		return removed
	}

	var final []*Cluster
	for len(live) > 1 {
		bi, bj, bd := -1, -1, 0.0
		for _, i := range live {
			for _, j := range live {
				if i == j {
					continue
				}
				if d := pairDist(i, j); bi < 0 || d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		live = slices.DeleteFunc(live, func(id int) bool { return id == bi || id == bj })
		m := s.Merge(nodes[bi].c, nodes[bj].c)
		if m.Size() < opt.K || !satisfies(m.Members) {
			push(m)
			continue
		}
		if opt.Modified && m.Size() > opt.K {
			for _, ri := range shrink(m) {
				push(s.NewSingleton(tbl, ri))
			}
		}
		final = append(final, m)
	}

	// Absorb the leftover records, in id then member order, each into the
	// nearest final cluster that stays satisfying — or the nearest one
	// when none does.
	for _, id := range live {
		for _, ri := range nodes[id].c.Members {
			single := s.NewSingleton(tbl, ri)
			best, bestD := -1, math.Inf(1)
			ok, okD := -1, math.Inf(1)
			for fi, f := range final {
				d := dist(single, f)
				if d < bestD {
					best, bestD = fi, d
				}
				if d < okD && satisfies(f.Members, ri) {
					ok, okD = fi, d
				}
			}
			if ok >= 0 {
				best = ok
			}
			if best < 0 {
				final = append(final, single)
				continue
			}
			f := final[best]
			f.Members = append(f.Members, ri)
			s.MergeInto(f.Closure, single.Closure)
			f.Cost = s.Cost(f.Closure)
		}
	}
	return final, nil
}

// assertMatchesOracle runs the engine at workers 1 and 4, and at workers 1
// with each neighbour-cache depth an engine can pick, and requires each
// clustering to equal the oracle's: the same clusters and members in the
// same order, the same closures and bit-equal costs.
func assertMatchesOracle(t *testing.T, label string, s *Space, tbl *table.Table, opt AggloOptions) {
	t.Helper()
	want, err := oracleAgglomerate(s, tbl, opt)
	if err != nil {
		t.Fatalf("%s oracle: %v", label, err)
	}
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		got, _, err := AgglomerateStatsCtx(nil, s, tbl, opt)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		assertSameClustering(t, fmt.Sprintf("%s workers=%d", label, workers), want, got)
	}
	opt.Workers = 1
	for _, depth := range depths {
		got, _, err := runAtDepth(s, tbl, opt, depth)
		if err != nil {
			t.Fatalf("%s depth=%d: %v", label, depth, err)
		}
		assertSameClustering(t, fmt.Sprintf("%s depth=%d", label, depth), want, got)
	}
}

// runAtDepth runs the engine on tbl with neighbour caches depth deep,
// whatever depth the table's size selects.
func runAtDepth(s *Space, tbl *table.Table, opt AggloOptions, depth int32) ([]*Cluster, AggloStats, error) {
	e := NewEngine(s, opt, tbl.Len())
	e.depth = depth
	defer e.Close(nil)
	return e.Run(nil, tbl)
}
