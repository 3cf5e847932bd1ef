package attack

import (
	"fmt"

	"kanon/internal/anonymity"
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
// combinatorial refinement discards every overlap edge that cannot be
// completed to a perfect matching — the same Definition 4.6 analysis the
// second adversary runs, but on public data only. Since allowed edges of a
// subgraph stay allowed in a supergraph, the refined candidate set of
// position i always contains the second adversary's match set:
//
//	matches(i) ⊆ refined(i) ⊆ overlap(i).
//
// The second inclusion is in fact an equality. Overlap is symmetric, so
// for an overlap edge (i, j) the matching that swaps i and j and keeps
// every other row on itself is perfect: the analysis never discards an
// edge, and the refined candidates of position i are the rows overlapping
// B_i (anonymity.RefinedCandidates counts them per row class; the oracle
// tests run the full analysis and agree).
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

// SimulateRefinement runs the combinatorial refinement attack: it returns,
// per released position, the size of the refined candidate set (overlap
// edges that survive the perfect-matching analysis) and, when sensitive is
// not nil, whether every refined candidate carries one sensitive value;
// sensitive[j] is the value of position j. The counts come from the
// release's row classes (anonymity.RefinedCandidates). A certified
// globally (1,k)-anonymous release keeps every count ≥ k.
func SimulateRefinement(hiers []*hierarchy.Hierarchy, g *table.GenTable, sensitive []int) (counts []int, exposed []bool, err error) {
	n := g.Len()
	if n > 0 && len(hiers) != len(g.Records[0]) {
		return nil, nil, fmt.Errorf("attack: %d hierarchies for %d attributes", len(hiers), len(g.Records[0]))
	}
	if sensitive != nil && len(sensitive) != n {
		return nil, nil, fmt.Errorf("attack: %d sensitive values for %d released rows", len(sensitive), n)
	}
	counts, exposed = anonymity.RefinedCandidates(hiers, g, sensitive)
	return counts, exposed, nil
}
