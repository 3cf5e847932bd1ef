package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// This file is the reference oracle of the core candidate scans: the
// Algorithm 3/4/5/6 and forest loops as they were written before the scans
// moved onto the fused LCA-cost rows (cluster.Space.LCACostRow). Every pair
// or widening cost here walks Hierarchy.LCA and reads CostAt, so the oracle
// shares no evaluation code with what it checks. The loops run
// sequentially and emit the same obs events as the production functions,
// so the equivalence tests compare counters as well as bytes. Fault
// injection and cancellation are left out; they do not touch the output.

// refPairCost returns d({R_i, R_j}) by per-attribute LCA walks.
func refPairCost(s *cluster.Space, tbl *table.Table, i, j int) float64 {
	ri, rj := tbl.Records[i], tbl.Records[j]
	r := s.NumAttrs()
	sum := 0.0
	for a := 0; a < r; a++ {
		h := s.Hiers[a]
		node := h.LCA(h.LeafOf(ri[a]), h.LeafOf(rj[a]))
		sum += s.CostAt(a, node)
	}
	return sum / float64(r)
}

// refK1Nearest is Algorithm 3 with the full candidate sort.
func refK1Nearest(ctx context.Context, s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseK1)()
	g := table.NewGen(tbl.Schema, n)
	// One neighbourhood scan per record: n−1 pair-cost evaluations.
	o.Counter(PhaseK1+".scans", int64(n))
	o.Counter(PhaseK1+".scan_evals", int64(n)*int64(n-1))
	for i := 0; i < n; i++ {
		type cand struct {
			j int
			w float64
		}
		cands := make([]cand, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			cands = append(cands, cand{j, refPairCost(s, tbl, i, j)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].w != cands[b].w {
				return cands[a].w < cands[b].w
			}
			return cands[a].j < cands[b].j
		})
		members := make([]int, 0, k)
		members = append(members, i)
		for _, c := range cands[:k-1] {
			members = append(members, c.j)
		}
		copy(g.Records[i], s.ClosureOf(tbl, members))
	}
	return g, nil
}

// refK1Expand is Algorithm 4 with an LCA walk per candidate attribute.
func refK1Expand(ctx context.Context, s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseK1)()
	g := table.NewGen(tbl.Schema, n)
	r := s.NumAttrs()
	evals := int64(0)
	for i := 0; i < n; i++ {
		inS := make([]bool, n)
		inS[i] = true
		closure := s.LeafClosure(tbl.Records[i])
		scratch := make(table.GenRecord, r)
		for size := 1; size < k; size++ {
			bestJ, bestD := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				if inS[j] {
					continue
				}
				sum := 0.0
				for a := 0; a < r; a++ {
					h := s.Hiers[a]
					scratch[a] = h.LCA(closure[a], h.LeafOf(tbl.Records[j][a]))
					sum += s.CostAt(a, scratch[a])
				}
				if d := sum / float64(r); d < bestD {
					bestJ, bestD = j, d
				}
				evals++
			}
			inS[bestJ] = true
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				closure[a] = h.LCA(closure[a], h.LeafOf(tbl.Records[bestJ][a]))
			}
		}
		copy(g.Records[i], closure)
	}
	o.Counter(PhaseK1+".scans", int64(n))
	o.Counter(PhaseK1+".scan_evals", evals)
	return g, nil
}

// refMake1K is Algorithm 5 with the full candidate sort. It counts one
// price per candidate row (core.make1k.prices).
func refMake1K(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) (*table.GenTable, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("core: generalized table has %d records, original has %d", g.Len(), n)
	}
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseMake1K)()
	r := s.NumAttrs()
	var deficient, augments, prices int64
	for i := 0; i < n; i++ {
		ri := tbl.Records[i]
		consistent := 0
		for j := 0; j < n; j++ {
			if s.Consistent(ri, g.Records[j]) {
				consistent++
			}
		}
		if consistent >= k {
			continue
		}
		type cand struct {
			j     int
			delta float64
		}
		var cands []cand
		for j := 0; j < n; j++ {
			gj := g.Records[j]
			if s.Consistent(ri, gj) {
				continue
			}
			sum := 0.0
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				widened := h.LCA(gj[a], h.LeafOf(ri[a]))
				sum += s.CostAt(a, widened) - s.CostAt(a, gj[a])
			}
			cands = append(cands, cand{j, sum / float64(r)})
		}
		prices += int64(len(cands))
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].delta != cands[b].delta {
				return cands[a].delta < cands[b].delta
			}
			return cands[a].j < cands[b].j
		})
		need := k - consistent
		for _, c := range cands[:need] {
			gj := g.Records[c.j]
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				gj[a] = h.LCA(gj[a], h.LeafOf(ri[a]))
			}
		}
		deficient++
		augments += int64(need)
	}
	if deficient > 0 {
		o.Counter("core.make1k.deficient", deficient)
		o.Counter("core.make1k.augments", augments)
	}
	o.Counter("core.make1k.prices", prices)
	return g, nil
}

// refMake1KConstrained is the constrained Algorithm 5 with an LCA walk per
// candidate attribute.
func refMake1KConstrained(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int, cons []cluster.Constraint, sensitive []int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	active := activeConstraints(cons)
	var bound []cluster.Bound
	if len(active) > 0 {
		bound = make([]cluster.Bound, len(active))
		for i, c := range active {
			b, err := c.Bind(sensitive)
			if err != nil {
				return nil, err
			}
			bound[i] = b
		}
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseMake1K)()
	var deficient, augments int64
	r := s.NumAttrs()
	violated := make([]cluster.Bound, 0, len(bound))
	improvesAny := func(j int) bool {
		for _, b := range violated {
			if b.Improves(j) {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		ri := tbl.Records[i]
		widened := int64(0)
		for {
			consistent := 0
			for _, b := range bound {
				b.Reset()
			}
			for j := 0; j < n; j++ {
				if s.Consistent(ri, g.Records[j]) {
					consistent++
					for _, b := range bound {
						b.Add(j)
					}
				}
			}
			needCount := consistent < k
			violated = violated[:0]
			for _, b := range bound {
				if !b.Satisfied() {
					violated = append(violated, b)
				}
			}
			if !needCount && len(violated) == 0 {
				break
			}
			bestJ, bestDelta := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				gj := g.Records[j]
				if s.Consistent(ri, gj) {
					continue
				}
				if len(violated) > 0 && !needCount && !improvesAny(j) {
					continue
				}
				sum := 0.0
				for a := 0; a < r; a++ {
					h := s.Hiers[a]
					w := h.LCA(gj[a], h.LeafOf(ri[a]))
					sum += s.CostAt(a, w) - s.CostAt(a, gj[a])
				}
				delta := sum / float64(r)
				if len(violated) > 0 && improvesAny(j) {
					delta -= 1e9
				}
				if delta < bestDelta {
					bestJ, bestDelta = j, delta
				}
			}
			if bestJ < 0 && len(violated) > 0 && !needCount {
				for j := 0; j < n; j++ {
					gj := g.Records[j]
					if s.Consistent(ri, gj) {
						continue
					}
					sum := 0.0
					for a := 0; a < r; a++ {
						h := s.Hiers[a]
						w := h.LCA(gj[a], h.LeafOf(ri[a]))
						sum += s.CostAt(a, w) - s.CostAt(a, gj[a])
					}
					if delta := sum / float64(r); delta < bestDelta {
						bestJ, bestDelta = j, delta
					}
				}
			}
			if bestJ < 0 {
				return nil, fmt.Errorf("core: record %d cannot reach (k=%d, constraints=%s): no admissible widening",
					i, k, constraintNames(active))
			}
			gj := g.Records[bestJ]
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				gj[a] = h.LCA(gj[a], h.LeafOf(ri[a]))
			}
			widened++
		}
		if widened > 0 {
			deficient++
			augments += widened
		}
	}
	if deficient > 0 {
		o.Counter("core.make1k.deficient", deficient)
		o.Counter("core.make1k.augments", augments)
	}
	return g, nil
}

// refMakeGlobal1K is Algorithm 6 with an LCA walk per candidate attribute.
func refMakeGlobal1K(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) (*table.GenTable, Global1KStats, error) {
	var stats Global1KStats
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, stats, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseGlobal)()
	r := s.NumAttrs()
	cons := make([][]bool, n)
	for i := 0; i < n; i++ {
		cons[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			cons[i][j] = s.Consistent(tbl.Records[i], g.Records[j])
		}
	}
	buildGraph := func() *bipartite.Graph {
		gr := bipartite.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if cons[i][j] {
					gr.AddEdge(i, j)
				}
			}
		}
		return gr
	}
	allowed, err := bipartite.AllowedEdges(buildGraph())
	if err != nil {
		return nil, stats, err
	}
	matchings := int64(1)
	stats.InitialMinMatches = math.MaxInt
	for i := 0; i < n; i++ {
		if len(allowed[i]) < stats.InitialMinMatches {
			stats.InitialMinMatches = len(allowed[i])
		}
		if len(allowed[i]) < k {
			stats.DeficientRecords++
		}
	}
	for i := 0; i < n; i++ {
		steps := 0
		for len(allowed[i]) < k {
			isMatch := make(map[int]bool, len(allowed[i]))
			for _, v := range allowed[i] {
				isMatch[v] = true
			}
			bestJ, bestDelta := -1, math.Inf(1)
			gi := g.Records[i]
			for j := 0; j < n; j++ {
				if !cons[i][j] || isMatch[j] {
					continue
				}
				sum := 0.0
				for a := 0; a < r; a++ {
					h := s.Hiers[a]
					widened := h.LCA(gi[a], h.LeafOf(tbl.Records[j][a]))
					sum += s.CostAt(a, widened) - s.CostAt(a, gi[a])
				}
				if delta := sum / float64(r); delta < bestDelta {
					bestJ, bestDelta = j, delta
				}
			}
			if bestJ < 0 {
				return nil, stats, fmt.Errorf("core: record %d has no non-match neighbour", i)
			}
			for a := 0; a < r; a++ {
				h := s.Hiers[a]
				gi[a] = h.LCA(gi[a], h.LeafOf(tbl.Records[bestJ][a]))
			}
			for u := 0; u < n; u++ {
				if !cons[u][i] && s.Consistent(tbl.Records[u], gi) {
					cons[u][i] = true
				}
			}
			steps++
			stats.GeneralizationSteps++
			allowed, err = bipartite.AllowedEdges(buildGraph())
			if err != nil {
				return nil, stats, err
			}
			matchings++
		}
		if steps > stats.MaxStepsPerRecord {
			stats.MaxStepsPerRecord = steps
		}
	}
	if o.Enabled() {
		o.Counter("core.global.matchings", matchings)
		o.Counter("core.global.deficient", int64(stats.DeficientRecords))
		o.Counter("core.global.steps", int64(stats.GeneralizationSteps))
		o.Counter("core.global.min_matches", int64(stats.InitialMinMatches))
		o.Peak("core.global.max_steps", int64(stats.MaxStepsPerRecord))
	}
	return g, stats, nil
}

// refForest is the forest baseline's component growth with an LCA walk per
// pair; the tree decomposition (partitionTree) is shared, as it evaluates
// no cost.
func refForest(ctx context.Context, s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, error) {
	n := tbl.Len()
	o := obs.From(ctx)
	defer o.Phase(PhaseForest)()
	var rounds, roundEvals int64
	parent := make([]int, n)
	compSize := make([]int, n)
	for i := range parent {
		parent[i] = i
		compSize[i] = 1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	type edge struct{ u, v int }
	var treeEdges []edge
	for {
		small := make([]bool, n)
		var roots []int
		for i := 0; i < n; i++ {
			if r := find(i); compSize[r] < k && !small[r] {
				small[r] = true
				roots = append(roots, r)
			}
		}
		if len(roots) == 0 {
			break
		}
		bestW := make([]float64, n)
		bestE := make([]edge, n)
		for _, r := range roots {
			bestW[r] = math.Inf(1)
		}
		evals := int64(0)
		for i := 0; i < n; i++ {
			ri := find(i)
			for j := i + 1; j < n; j++ {
				rj := find(j)
				if ri == rj {
					continue
				}
				iSmall, jSmall := small[ri], small[rj]
				if !iSmall && !jSmall {
					continue
				}
				w := refPairCost(s, tbl, i, j)
				evals++
				if iSmall && w < bestW[ri] {
					bestW[ri] = w
					bestE[ri] = edge{i, j}
				}
				if jSmall && w < bestW[rj] {
					bestW[rj] = w
					bestE[rj] = edge{j, i}
				}
			}
		}
		rounds++
		roundEvals += evals
		sort.Ints(roots)
		merged := false
		for _, r := range roots {
			ru := find(bestE[r].u)
			rv := find(bestE[r].v)
			if ru == rv || compSize[find(r)] >= k {
				continue
			}
			treeEdges = append(treeEdges, bestE[r])
			if compSize[ru] < compSize[rv] {
				ru, rv = rv, ru
			}
			parent[rv] = ru
			compSize[ru] += compSize[rv]
			merged = true
		}
		if !merged {
			break
		}
	}
	adj := make([][]int, n)
	for _, e := range treeEdges {
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
	}
	visited := make([]bool, n)
	var clusters []*cluster.Cluster
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		for _, p := range partitionTree(root, adj, visited, k) {
			clusters = append(clusters, s.NewCluster(tbl, p))
		}
	}
	if o.Enabled() {
		if rounds > 0 {
			o.Counter("core.forest.rounds", rounds)
			o.Counter("core.forest.scan_evals", roundEvals)
		}
		o.Counter("core.forest.tree_edges", int64(len(treeEdges)))
		o.Counter("core.forest.parts", int64(len(clusters)))
	}
	return cluster.ToGenTable(tbl.Schema, n, clusters), nil
}
