package core

import (
	"math/rand"
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/loss"
	"kanon/internal/table"
)

func TestFullDomainPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, k := range []int{2, 4, 8} {
		s, tbl := testSpace(t, rng, 60, "entropy")
		g, levels, err := FullDomainCtx(nil, s, tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.IsKAnonymous(g, k) {
			t.Errorf("k=%d: not k-anonymous", k)
		}
		if !anonymity.IsGeneralizationOf(s, tbl, g) {
			t.Errorf("k=%d: not positional", k)
		}
		if len(levels) != s.NumAttrs() {
			t.Errorf("k=%d: %d levels for %d attrs", k, len(levels), s.NumAttrs())
		}
		// Full-domain: every record of equal original value vector gets the
		// same generalized vector, and each attribute is generalized
		// uniformly: same original value -> same node everywhere.
		for j := 0; j < s.NumAttrs(); j++ {
			nodeOf := make(map[int]int)
			for i, rec := range tbl.Records {
				if prev, ok := nodeOf[rec[j]]; ok {
					if g.Records[i][j] != prev {
						t.Fatalf("k=%d attr %d: value %d mapped to two nodes (not full-domain)", k, j, rec[j])
					}
				} else {
					nodeOf[rec[j]] = g.Records[i][j]
				}
			}
		}
	}
}

func TestFullDomainOptimalAmongVectors(t *testing.T) {
	// Exhaustively verify optimality on a small instance: no level vector
	// with smaller loss is k-anonymous.
	rng := rand.New(rand.NewSource(31))
	s, tbl := testSpace(t, rng, 30, "lm")
	const k = 3
	g, bestLevels, err := FullDomainCtx(nil, s, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	bestLoss := loss.TableLoss(s.Measure, g)
	_ = bestLevels

	maxLevels := make([]int, s.NumAttrs())
	for j, h := range s.Hiers {
		maxLevels[j] = h.Height()
	}
	levels := make([]int, s.NumAttrs())
	var rec func(j int)
	rec = func(j int) {
		if j == s.NumAttrs() {
			gg := applyLevels(s, tbl, levels)
			if anonymity.IsKAnonymous(gg, k) {
				if l := loss.TableLoss(s.Measure, gg); l < bestLoss-1e-12 {
					t.Fatalf("vector %v has loss %v < best %v", levels, l, bestLoss)
				}
			}
			return
		}
		for l := 0; l <= maxLevels[j]; l++ {
			levels[j] = l
			rec(j + 1)
		}
	}
	rec(0)
}

// applyLevels mirrors the internal level application for the exhaustive
// check.
func applyLevels(s *cluster.Space, tbl *table.Table, levels []int) *table.GenTable {
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i, rec := range tbl.Records {
		for j, v := range rec {
			node := s.Hiers[j].LeafOf(v)
			for l := 0; l < levels[j]; l++ {
				if p := s.Hiers[j].Parent(node); p >= 0 {
					node = p
				}
			}
			g.Records[i][j] = node
		}
	}
	return g
}

func TestFullDomainWorseOrEqualToLocal(t *testing.T) {
	// Global recoding can never beat the best local recoding by definition
	// of the search space; verify the observable ordering on a real
	// instance (local ≤ full-domain).
	rng := rand.New(rand.NewSource(32))
	s, tbl := testSpace(t, rng, 80, "entropy")
	const k = 4
	gFD, _, err := FullDomainCtx(nil, s, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	best := 1e18
	for _, d := range cluster.PaperDistances() {
		gL, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: k, Distance: d})
		if err != nil {
			t.Fatal(err)
		}
		if l := loss.TableLoss(s.Measure, gL); l < best {
			best = l
		}
	}
	if fd := loss.TableLoss(s.Measure, gFD); fd < best-1e-9 {
		t.Errorf("full-domain loss %v beats best local %v (possible but suspicious; investigate)", fd, best)
	}
}

func TestFullDomainGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s, tbl := testSpace(t, rng, 5, "lm")
	if _, _, err := FullDomainCtx(nil, s, tbl, 0); err == nil {
		t.Error("expected k < 1 error")
	}
	if _, _, err := FullDomainCtx(nil, s, tbl, 6); err == nil {
		t.Error("expected k > n error")
	}
	// k = n forces heavy generalization but must succeed.
	g, _, err := FullDomainCtx(nil, s, tbl, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKAnonymous(g, 5) {
		t.Error("k=n full-domain not k-anonymous")
	}
}

func TestFullDomainDeterminism(t *testing.T) {
	rng1 := rand.New(rand.NewSource(34))
	s1, tbl1 := testSpace(t, rng1, 40, "entropy")
	rng2 := rand.New(rand.NewSource(34))
	s2, tbl2 := testSpace(t, rng2, 40, "entropy")
	_, l1, err := FullDomainCtx(nil, s1, tbl1, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, l2, err := FullDomainCtx(nil, s2, tbl2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := range l1 {
		if l1[j] != l2[j] {
			t.Fatalf("levels differ: %v vs %v", l1, l2)
		}
	}
}
