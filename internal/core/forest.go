package core

import (
	"context"
	"fmt"
	"math"

	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// ForestCtx runs the forest algorithm of Aggarwal et al. (ICDT'05), the
// practical 3k−3-approximation baseline of the paper's experiments, and
// returns the k-anonymized table with its clustering.
//
// Phase 1 grows components Borůvka-style: while any component has fewer
// than k records, every such component acquires its minimum-weight outgoing
// edge (weight = d({R_i, R_j}) under the space's measure) and is merged
// with the component on the other side. The chosen edges form a forest in
// which every tree has ≥ k nodes.
//
// Phase 2 decomposes oversized trees into parts of size in [k, 2k−1] by a
// greedy post-order traversal (a root remainder smaller than k is merged
// into the last emitted part), keeping cluster sizes — and hence the
// closure costs the approximation guarantee charges — bounded.
//
// Cancellation is checked at every Borůvka round and at every outer row of
// the O(n²) edge pass, returning ctx.Err() with no partial output. A nil
// ctx disables cancellation.
func ForestCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, []*cluster.Cluster, error) {
	n := tbl.Len()
	if k < 1 {
		return nil, nil, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	if k > n {
		return nil, nil, fmt.Errorf("core: k=%d exceeds table size n=%d", k, n)
	}
	if n == 0 {
		return table.NewGen(tbl.Schema, 0), nil, nil
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseForest)()
	// The run's Borůvka rounds, the pair costs their edge passes priced,
	// its tree edges and parts, reported once whichever way it ends.
	type edge struct{ u, v int }
	var rounds, roundEvals int64
	var treeEdges []edge
	var clusters []*cluster.Cluster
	defer func() {
		if rounds > 0 {
			o.Counter(PhaseForest+".rounds", rounds)
			o.Counter(PhaseForest+".scan_evals", roundEvals)
		}
		o.Counter(PhaseForest+".tree_edges", int64(len(treeEdges)))
		o.Counter(PhaseForest+".parts", int64(len(clusters)))
	}()

	// Phase 1: component growth over the record graph.
	parent := make([]int, n) // union-find
	compSize := make([]int, n)
	for i := range parent {
		parent[i] = i
		compSize[i] = 1
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	rows := newCostRows(s)

	// Per-round state, allocated once: root[i] is record i's component,
	// and for each component root r, small[r] marks a component below size
	// k and bestW[r]/bestE[r] hold its lightest outgoing edge so far.
	root := make([]int, n)
	small := make([]bool, n)
	bestW := make([]float64, n)
	bestE := make([]edge, n)
	var roots []int
	for {
		if ctxDone(ctx) {
			return nil, nil, ctx.Err()
		}
		// Collect components below size k. Only a root is its own parent,
		// so the scan yields the small roots in ascending order.
		roots = roots[:0]
		for i := 0; i < n; i++ {
			root[i] = find(i)
			small[i] = parent[i] == i && compSize[i] < k
			if small[i] {
				roots = append(roots, i)
				bestW[i] = math.Inf(1)
				bestE[i] = edge{}
			}
		}
		if len(roots) == 0 {
			break
		}
		// One pass over all pairs: best outgoing edge per small component.
		evals := int64(0)
		for i := 0; i < n; i++ {
			if ctxDone(ctx) {
				return nil, nil, ctx.Err()
			}
			ri := root[i]
			iSmall := small[ri]
			rows.load(tbl.Records[i])
			for j := i + 1; j < n; j++ {
				rj := root[j]
				if ri == rj {
					continue
				}
				jSmall := small[rj]
				if !iSmall && !jSmall {
					continue
				}
				w := rows.pairCost(tbl.Records[j])
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
		// One round = one full edge pass.
		rounds++
		roundEvals += evals
		// Merge deterministically: process small components in ascending
		// root order; skip those already merged this round.
		merged := false
		for _, r := range roots {
			// The component may have been merged into during this round
			// already; re-check it is still small and its edge still
			// crosses components.
			ru := find(bestE[r].u)
			rv := find(bestE[r].v)
			if ru == rv || compSize[find(r)] >= k {
				continue
			}
			treeEdges = append(treeEdges, bestE[r])
			// Union by size.
			if compSize[ru] < compSize[rv] {
				ru, rv = rv, ru
			}
			parent[rv] = ru
			compSize[ru] += compSize[rv]
			merged = true
		}
		if !merged {
			break // defensive: all remaining smalls had no outgoing edge
		}
	}

	// Build the forest adjacency from the chosen tree edges.
	adj := make([][]int, n)
	for _, e := range treeEdges {
		adj[e.u] = append(adj[e.u], e.v)
		adj[e.v] = append(adj[e.v], e.u)
	}

	// Phase 2: decompose each tree into parts of size in [k, 2k−1].
	visited := make([]bool, n)
	for root := 0; root < n; root++ {
		if visited[root] {
			continue
		}
		parts := partitionTree(root, adj, visited, k)
		for _, p := range parts {
			clusters = append(clusters, s.NewCluster(tbl, p))
		}
	}
	g := cluster.ToGenTable(tbl.Schema, n, clusters)
	return g, clusters, nil
}

// partitionTree walks the tree containing root in post-order and greedily
// emits parts of size ≥ k (and < 2k, since each accumulated leftover is
// < k before the final addition of another leftover that is itself < k,
// plus possibly the current node). A final remainder smaller than k is
// merged into the last emitted part; if the whole tree is smaller than 2k
// it becomes a single part.
func partitionTree(root int, adj [][]int, visited []bool, k int) [][]int {
	var parts [][]int
	type frame struct {
		node, parent int
		childIdx     int
		leftover     []int
	}
	visited[root] = true
	stack := []frame{{node: root, parent: -1}}
	var rootLeftover []int
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		advanced := false
		for f.childIdx < len(adj[f.node]) {
			c := adj[f.node][f.childIdx]
			f.childIdx++
			if c == f.parent || visited[c] {
				continue
			}
			visited[c] = true
			stack = append(stack, frame{node: c, parent: f.node})
			advanced = true
			break
		}
		if advanced {
			continue
		}
		// Leaving f.node: its own leftover starts with itself plus the
		// leftovers handed up by children (handled below on return).
		leftover := append(f.leftover, f.node)
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			p.leftover = append(p.leftover, leftover...)
			if len(p.leftover) >= k {
				parts = append(parts, append([]int(nil), p.leftover...))
				p.leftover = p.leftover[:0]
			}
		} else {
			rootLeftover = leftover
		}
	}
	if len(rootLeftover) >= k || len(parts) == 0 {
		parts = append(parts, rootLeftover)
	} else if len(rootLeftover) > 0 {
		last := len(parts) - 1
		parts[last] = append(parts[last], rootLeftover...)
	}
	return parts
}
