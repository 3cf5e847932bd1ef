package attack

import (
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/table"
)

// TestAttackEdgeCases drives all three attacks — matching (Simulate),
// refinement (SimulateRefinement) and intersection (OverlappingWindows +
// SimulateIntersection) — through the degenerate releases that historically
// break candidate-set code: a single-record table, the trivial threshold
// k=1, a release whose consistency graph has no perfect matching, and a
// population with all-identical sensitive values. Every case pins the exact
// per-attack numbers over the flat suppress-only population of distinct
// values a, b, c, ...
func TestAttackEdgeCases(t *testing.T) {
	type want struct {
		breaches1, breaches2 int
		exposed1, exposed2   int
		refined              []int
		// intersection[id] is the intersected candidate count; exposed[id]
		// the homogeneity verdict (checked only when sensitive is set).
		intersection map[int]int
		exposed      map[int]bool
	}
	cases := []struct {
		name      string
		n, k      int
		release   func(s *cluster.Space, g *table.GenTable)
		sensitive []int
		want      want
	}{
		{
			// One record, fully suppressed: every attack sees exactly one
			// candidate, and a singleton candidate set is always
			// sensitive-homogeneous. OverlappingWindows degenerates to the
			// same release published twice.
			name: "single suppressed record", n: 1, k: 1,
			release:   func(s *cluster.Space, g *table.GenTable) { g.Records[0][0] = s.Hiers[0].Root() },
			sensitive: []int{7},
			want: want{
				breaches1: 0, breaches2: 0, exposed1: 1, exposed2: 1,
				refined:      []int{1},
				intersection: map[int]int{0: 1},
				exposed:      map[int]bool{0: true},
			},
		},
		{
			// k=1 makes any non-empty candidate set sufficient: the identity
			// release — maximally revealing, every count exactly 1 — must
			// report zero breaches under every attack.
			name: "k=1 identity release", n: 4, k: 1,
			release: func(s *cluster.Space, g *table.GenTable) {
				for i := range g.Records {
					g.Records[i][0] = s.Hiers[0].LeafOf(i)
				}
			},
			want: want{
				breaches1: 0, breaches2: 0,
				refined:      []int{1, 1, 1, 1},
				intersection: map[int]int{0: 1, 1: 1, 2: 1, 3: 1},
			},
		},
		{
			// Every row claims value 'a': not a positional generalization of
			// the table, so the consistency graph has no perfect matching.
			// Adversary-2 counts drop to 0 (all n breach), adversary-1 sees
			// candidates only for record 0, and the refinement attack — which
			// reasons about the release alone, where the identity matching is
			// always perfect — keeps the complete overlap set.
			name: "no perfect matching", n: 3, k: 2,
			release: func(s *cluster.Space, g *table.GenTable) {
				for i := range g.Records {
					g.Records[i][0] = s.Hiers[0].LeafOf(0)
				}
			},
			want: want{
				breaches1: 2, breaches2: 3,
				refined:      []int{3, 3, 3},
				intersection: map[int]int{0: 2, 1: 0, 2: 0},
			},
		},
		{
			// Full suppression hides identities perfectly — no breaches
			// anywhere — yet with an all-identical sensitive attribute every
			// candidate set is homogeneous, so all attacks report full
			// sensitive disclosure: anonymity without diversity protects
			// nothing.
			name: "all-identical sensitive values", n: 4, k: 2,
			release: func(s *cluster.Space, g *table.GenTable) {
				for i := range g.Records {
					g.Records[i][0] = s.Hiers[0].Root()
				}
			},
			sensitive: []int{5, 5, 5, 5},
			want: want{
				breaches1: 0, breaches2: 0, exposed1: 4, exposed2: 4,
				refined:      []int{4, 4, 4, 4},
				intersection: map[int]int{0: 3, 1: 2, 2: 2, 3: 3},
				exposed:      map[int]bool{0: true, 1: true, 2: true, 3: true},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, tbl := suppressOnly(t, c.n)
			g := table.NewGen(tbl.Schema, c.n)
			c.release(s, g)

			outcomes, err := Simulate(s, tbl, g, c.sensitive)
			if err != nil {
				t.Fatal(err)
			}
			sum := Summarize(outcomes, c.k)
			if sum.Breaches1 != c.want.breaches1 || sum.Breaches2 != c.want.breaches2 {
				t.Errorf("breaches = (%d, %d), want (%d, %d)",
					sum.Breaches1, sum.Breaches2, c.want.breaches1, c.want.breaches2)
			}
			if sum.Exposed1 != c.want.exposed1 || sum.Exposed2 != c.want.exposed2 {
				t.Errorf("exposed = (%d, %d), want (%d, %d)",
					sum.Exposed1, sum.Exposed2, c.want.exposed1, c.want.exposed2)
			}

			counts, _, err := SimulateRefinement(s.Hiers, g, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range counts {
				if n != c.want.refined[i] {
					t.Errorf("refined[%d] = %d, want %d", i, n, c.want.refined[i])
				}
			}

			rels, err := OverlappingWindows(s, tbl, g)
			if err != nil {
				t.Fatal(err)
			}
			outs, err := SimulateIntersection(rels, c.sensitive)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != len(c.want.intersection) {
				t.Fatalf("intersection covers %d individuals, want %d", len(outs), len(c.want.intersection))
			}
			for _, o := range outs {
				if o.Candidates != c.want.intersection[o.ID] {
					t.Errorf("intersection[%d] = %d candidates, want %d", o.ID, o.Candidates, c.want.intersection[o.ID])
				}
				if c.sensitive != nil && o.SensitiveExposed != c.want.exposed[o.ID] {
					t.Errorf("intersection[%d] exposed = %v, want %v", o.ID, o.SensitiveExposed, c.want.exposed[o.ID])
				}
			}
		})
	}
}
