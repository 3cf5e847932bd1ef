package core

import (
	"container/heap"
	"context"
	"fmt"

	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// FullDomainCtx computes an optimal full-domain k-anonymization in the style
// of Incognito (LeFevre et al.) and the global-recoding model of
// Bayardo–Agrawal, which Section II contrasts with this paper's local
// recoding: a single generalization level is chosen per attribute and
// applied to every record. Level ℓ_j means every value of attribute j is
// replaced by its ancestor ℓ_j steps up its hierarchy (capped at the
// root).
//
// The search is best-first over the lattice of level vectors ordered by
// the resulting information loss. For measures whose per-entry cost is
// monotone along each hierarchy (LM, tree, suppression, monotone entropy)
// the loss is monotone in every coordinate and the first k-anonymous
// vector popped is loss-optimal among full-domain solutions; under the raw
// entropy measure — which can locally decrease on skewed data — the result
// is best-effort rather than provably optimal.
//
// The function exists as a baseline: it demonstrates — and the
// local-vs-global ablation (E15) quantifies — how much utility local
// recoding buys.
//
// Cancellation is checked at every popped lattice vector (the k-anonymity
// test is the O(n) unit of work), returning ctx.Err() with no partial
// output. A nil ctx disables cancellation.
func FullDomainCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, []int, error) {
	n := tbl.Len()
	if k < 1 {
		return nil, nil, fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	if k > n {
		return nil, nil, fmt.Errorf("core: k=%d exceeds table size n=%d", k, n)
	}
	r := s.NumAttrs()
	maxLevel := make([]int, r)
	for j, h := range s.Hiers {
		maxLevel[j] = h.Height()
	}

	// ancestorAt[j][v][l] = the node reached from leaf v of attribute j by
	// walking up l steps (capped at the root).
	ancestorAt := make([][][]int, r)
	for j, h := range s.Hiers {
		ancestorAt[j] = make([][]int, h.NumValues())
		for v := 0; v < h.NumValues(); v++ {
			chain := make([]int, maxLevel[j]+1)
			node := h.LeafOf(v)
			for l := 0; l <= maxLevel[j]; l++ {
				chain[l] = node
				if p := h.Parent(node); p >= 0 {
					node = p
				}
			}
			ancestorAt[j][v] = chain
		}
	}

	// A full-domain vector's loss decomposes per attribute, so precompute
	// lossAtLevel[j][l] = (1/n)·Σ_i cost(j, ancestorAt[j][R_i(j)][l]) once;
	// lossOf is then O(r) per lattice vector.
	lossAtLevel := make([][]float64, r)
	for j := 0; j < r; j++ {
		counts := tbl.ValueCounts(j)
		lossAtLevel[j] = make([]float64, maxLevel[j]+1)
		for l := 0; l <= maxLevel[j]; l++ {
			sum := 0.0
			for v, c := range counts {
				if c > 0 {
					sum += float64(c) * s.CostAt(j, ancestorAt[j][v][l])
				}
			}
			lossAtLevel[j][l] = sum / float64(n)
		}
	}
	lossOf := func(levels []int) float64 {
		sum := 0.0
		for j, l := range levels {
			sum += lossAtLevel[j][l]
		}
		return sum / float64(r)
	}
	apply := func(levels []int) *table.GenTable {
		g := table.NewGen(tbl.Schema, n)
		for i, rec := range tbl.Records {
			for j, v := range rec {
				g.Records[i][j] = ancestorAt[j][v][levels[j]]
			}
		}
		return g
	}

	o := obs.From(ctx)
	defer o.Phase(PhaseFullDomain)()
	// Each popped vector costs one O(n) k-anonymity test.
	vectors := int64(0)
	defer func() { o.Counter(PhaseFullDomain+".vectors", vectors) }()
	pq := &levelHeap{}
	heap.Init(pq)
	start := make([]int, r)
	heap.Push(pq, levelNode{levels: start, loss: lossOf(start)})
	visited := map[string]bool{key(start): true}
	groupBuf := make([]byte, 0, 4*r)
	groupIDs := make(map[string]int, n)
	groupCounts := make([]int, 0, n)

	for pq.Len() > 0 {
		if ctxDone(ctx) {
			return nil, nil, ctx.Err()
		}
		cur := heap.Pop(pq).(levelNode)
		vectors++
		if fullDomainKAnonymous(tbl, ancestorAt, cur.levels, k, groupBuf, groupIDs, groupCounts) {
			return apply(cur.levels), cur.levels, nil
		}
		for j := 0; j < r; j++ {
			if cur.levels[j] >= maxLevel[j] {
				continue
			}
			next := append([]int(nil), cur.levels...)
			next[j]++
			kk := key(next)
			if visited[kk] {
				continue
			}
			visited[kk] = true
			heap.Push(pq, levelNode{levels: next, loss: lossOf(next)})
		}
	}
	// The all-root vector makes every record identical, so with k ≤ n the
	// search always terminates above.
	return nil, nil, fmt.Errorf("core: full-domain search exhausted without a k-anonymous vector (impossible for k ≤ n)")
}

// fullDomainKAnonymous checks the k-anonymity of a level vector without
// materializing the generalized table: records are grouped by the byte
// encoding of their per-attribute generalized nodes, groups maps each
// encoding to its number in order of first appearance, and counts[g] is
// the size of group g. counts has capacity n, so its appends never
// reallocate.
func fullDomainKAnonymous(tbl *table.Table, ancestorAt [][][]int, levels []int, k int, buf []byte, groups map[string]int, counts []int) bool {
	clear(groups)
	counts = counts[:0]
	for _, rec := range tbl.Records {
		buf = buf[:0]
		for j, v := range rec {
			node := ancestorAt[j][v][levels[j]]
			buf = append(buf, byte(node), byte(node>>8), byte(node>>16), byte(node>>24))
		}
		g, ok := groups[string(buf)]
		if !ok {
			g = len(counts)
			groups[string(buf)] = g
			counts = append(counts, 0)
		}
		counts[g]++
	}
	for _, c := range counts {
		if c < k {
			return false
		}
	}
	return true
}

func key(levels []int) string {
	b := make([]byte, len(levels))
	for i, l := range levels {
		b[i] = byte(l)
	}
	return string(b)
}

// levelNode is one lattice vector with its precomputed loss.
type levelNode struct {
	levels []int
	loss   float64
}

// levelHeap is a min-heap of level vectors by loss, with a deterministic
// lexicographic tie-break.
type levelHeap []levelNode

func (h levelHeap) Len() int { return len(h) }
func (h levelHeap) Less(i, j int) bool {
	if h[i].loss != h[j].loss {
		return h[i].loss < h[j].loss
	}
	for x := range h[i].levels {
		if h[i].levels[x] != h[j].levels[x] {
			return h[i].levels[x] < h[j].levels[x]
		}
	}
	return false
}
func (h levelHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *levelHeap) Push(x interface{}) { *h = append(*h, x.(levelNode)) }
func (h *levelHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
