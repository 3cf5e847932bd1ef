package attack

import (
	"fmt"

	"kanon/internal/anonymity"
	"kanon/internal/bipartite"
	"kanon/internal/hierarchy"
	"kanon/internal/table"
)

// This file implements the combinatorial refinement attack: an adversary
// who sees ONLY the released generalization and the (public) hierarchy
// structure — no original table, no knowledge of who is in the database —
// and still prunes candidate sets by reasoning about which record-to-row
// linkings are jointly possible. It follows the no-auxiliary-information
// attack direction of arXiv 2509.03350 using this repo's matching
// machinery.
//
// The reasoning: the release is a positional generalization of SOME hidden
// table, so the hidden record behind position i is consistent with its own
// released row B_i. Released row B_j can then also belong to that hidden
// record only if B_i and B_j overlap — share at least one original record,
// i.e. per attribute the value sets leaves(B_i[a]) and leaves(B_j[a])
// intersect. For the laminar hierarchies of Definition 3.1 two permissible
// subsets intersect iff one contains the other, so overlap is r
// ancestor-or-descendant tests, each O(1).
//
// The overlap graph provably contains the true consistency graph
// V_{D,g(D)} as a subgraph (the hidden record R_i witnesses every true
// edge), and it always admits a perfect matching (the identity). The
// combinatorial refinement then discards every overlap edge that cannot be
// completed to a perfect matching — the same Definition 4.6 analysis the
// second adversary runs, but on public data only. Since allowed edges of a
// subgraph stay allowed in a supergraph, the refined candidate set of
// position i always contains the second adversary's match set:
//
//	matches(i) ⊆ refined(i) ⊆ overlap(i).
//
// Hence a certified globally (1,k)-anonymous release keeps every refined
// candidate set at size ≥ k (the FuzzRefinementAttack invariant). In the
// other direction the attack collapses a candidate set wherever the
// released structure alone forces the linkage — rows whose generalized
// subtrees are disjoint from every other row's can belong to nobody else,
// so their count drops to 1 with zero auxiliary information. It never
// over-reports: when several hidden tables could explain the release
// (e.g. suppressed rows that might swap with identity rows), the refined
// set honestly keeps all of them, unlike the population-informed second
// adversary.

// OverlapGraph builds the bipartite self-consistency graph of a release:
// both sides are the released rows, and edge (i, j) is present iff rows
// B_i and B_j overlap in every attribute (there exists an original record
// consistent with both). It needs only the release and the hierarchies.
// The edges come from anonymity.OverlappingRows, built from the release's
// row classes; rows of one class share their neighbour list.
func OverlapGraph(hiers []*hierarchy.Hierarchy, g *table.GenTable) (*bipartite.Graph, error) {
	n := g.Len()
	if n > 0 && len(hiers) != len(g.Records[0]) {
		return nil, fmt.Errorf("attack: %d hierarchies for %d attributes", len(hiers), len(g.Records[0]))
	}
	return bipartite.FromAdjacency(n, anonymity.OverlappingRows(hiers, g)), nil
}

// RefinementCandidates runs the combinatorial refinement attack and
// returns, per released position, the refined candidate rows: overlap
// edges that survive the perfect-matching analysis. The overlap graph
// always has a perfect matching (the identity), so the analysis is never
// vacuous on a non-empty release.
func RefinementCandidates(hiers []*hierarchy.Hierarchy, g *table.GenTable) ([][]int, error) {
	gr, err := OverlapGraph(hiers, g)
	if err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, nil
	}
	allowed, err := bipartite.AllowedEdges(gr)
	if err != nil {
		// Unreachable for a well-formed release: the identity matching is
		// always perfect. Surface the error rather than masking it.
		return nil, fmt.Errorf("attack: refinement matching failed: %w", err)
	}
	return allowed, nil
}

// SimulateRefinement is the counting form of the refinement attack: the
// size of each position's refined candidate set. A certified globally
// (1,k)-anonymous release keeps every count ≥ k.
func SimulateRefinement(hiers []*hierarchy.Hierarchy, g *table.GenTable) ([]int, error) {
	allowed, err := RefinementCandidates(hiers, g)
	if err != nil {
		return nil, err
	}
	counts := make([]int, g.Len())
	for i, vs := range allowed {
		counts[i] = len(vs)
	}
	return counts, nil
}
