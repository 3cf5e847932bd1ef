package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/datagen"
	"kanon/internal/loss"

	"kanon/internal/cluster"
)

// sensitiveFor fabricates a sensitive attribute with v distinct values.
func sensitiveFor(rng *rand.Rand, n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(v)
	}
	return out
}

// distinctL is the distinct ℓ-diversity constraint list of the tests below.
func distinctL(l int) []cluster.Constraint {
	return []cluster.Constraint{cluster.DistinctLDiversity(l)}
}

func TestKAnonymizeDiversePostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, l := range []int{2, 3} {
		s, tbl := testSpace(t, rng, 60, "entropy")
		sens := sensitiveFor(rng, tbl.Len(), 4)
		const k = 4
		// The clustering itself, so every cluster's diversity is checked,
		// not only that of the classes the release merges them into.
		clusters, _, err := cluster.AgglomerateStatsCtx(nil, s, tbl, cluster.AggloOptions{K: k, Distance: cluster.D3{}, Constraints: distinctL(l), Sensitive: sens})
		if err != nil {
			t.Fatal(err)
		}
		g := cluster.ToGenTable(tbl.Schema, tbl.Len(), clusters)
		if !anonymity.IsKAnonymous(g, k) {
			t.Errorf("l=%d: not k-anonymous", l)
		}
		ok, err := anonymity.IsDistinctLDiverse(g, sens, l)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("l=%d: release not distinct %d-diverse", l, l)
		}
		for ci, c := range clusters {
			distinct := make(map[int]bool)
			for _, i := range c.Members {
				distinct[sens[i]] = true
			}
			if len(distinct) < l {
				t.Errorf("l=%d: cluster %d has %d distinct sensitive values", l, ci, len(distinct))
			}
		}
	}
}

func TestKAnonymizeDiverseModified(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s, tbl := testSpace(t, rng, 50, "lm")
	sens := sensitiveFor(rng, tbl.Len(), 3)
	const k, l = 3, 2
	g, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: k, Modified: true, Constraints: distinctL(l), Sensitive: sens})
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKAnonymous(g, k) {
		t.Error("modified diverse: not k-anonymous")
	}
	ok, err := anonymity.IsDistinctLDiverse(g, sens, l)
	if err != nil || !ok {
		t.Errorf("modified diverse: not %d-diverse (%v)", l, err)
	}
}

func TestKAnonymizeDiverseUnattainable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s, tbl := testSpace(t, rng, 20, "lm")
	sens := make([]int, tbl.Len()) // all identical
	_, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: 2, Constraints: distinctL(2), Sensitive: sens})
	if err == nil || !strings.Contains(err.Error(), "unattainable") {
		t.Errorf("uniform sensitive column: err = %v, want an unattainable-diversity error", err)
	}
	// l < 1 is no error on the constraint path: the constraint is trivial
	// and dropped before binding, so even a uniform column runs plain.
	if !cluster.DistinctLDiversity(0).Trivial() {
		t.Error("DistinctLDiversity(0) is not trivial")
	}
	if _, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: 2, Constraints: distinctL(0), Sensitive: sens}); err != nil {
		t.Errorf("l=0: %v, want the plain run", err)
	}
	if _, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: 0, Constraints: distinctL(2), Sensitive: sens}); err == nil {
		t.Error("expected k < 1 error")
	}
	short := []int{1, 2}
	if _, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: 2, Constraints: distinctL(2), Sensitive: short}); err == nil {
		t.Error("expected sensitive-length error")
	}
}

func TestKAnonymizeDiverseLOneIsPlain(t *testing.T) {
	// l ≤ 1 must behave exactly like the plain algorithm.
	rng1 := rand.New(rand.NewSource(43))
	s1, tbl1 := testSpace(t, rng1, 40, "entropy")
	sens := sensitiveFor(rand.New(rand.NewSource(1)), tbl1.Len(), 3)
	gp, err := KAnonymizeCtx(nil, s1, tbl1, cluster.AggloOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 1} {
		gd, err := KAnonymizeCtx(nil, s1, tbl1, cluster.AggloOptions{K: 4, Constraints: distinctL(l), Sensitive: sens})
		if err != nil {
			t.Fatal(err)
		}
		for i := range gd.Records {
			if !slices.Equal(gd.Records[i], gp.Records[i]) {
				t.Fatalf("l=%d diverse differs from plain at record %d", l, i)
			}
		}
	}
}

// TestMake1KConstrainedTrivialIsPlain pins KKAnonymizeCtx's choice of
// post-pass: with no non-trivial constraint it runs Make1KCtx instead of
// the constrained loop, and the two release the same bytes. Widening R̄_j
// changes only whether j is consistent with R_i, so the one-at-a-time
// constrained loop picks the same records as the batch loop, ties going
// to the lower j in both.
func TestMake1KConstrainedTrivialIsPlain(t *testing.T) {
	for _, dataset := range []string{"adt", "art"} {
		for _, n := range []int{300, 1500} {
			ds := datagen.Adult(n, 42)
			if dataset == "art" {
				ds = datagen.ART(n, 42)
			}
			s := measureSpace(t, ds.Table, ds.Hiers, "entropy")
			for _, k := range []int{2, 5, 10} {
				seed, err := K1ExpandCtx(nil, s, ds.Table, k, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Make1KCtx(nil, s, ds.Table, seed.Clone(), k)
				if err != nil {
					t.Fatal(err)
				}
				for _, cons := range [][]cluster.Constraint{nil, distinctL(1)} {
					got, err := make1KConstrained(nil, s, ds.Table, seed.Clone(), k, cons, ds.Sensitive)
					if err != nil {
						t.Fatal(err)
					}
					assertSameGen(t, fmt.Sprintf("%s n=%d k=%d cons=%d", dataset, n, k, len(cons)), want, got)
				}
			}
		}
	}
}

func TestMake1KDiversePostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s, tbl := testSpace(t, rng, 40, "entropy")
	sens := sensitiveFor(rng, tbl.Len(), 4)
	const k, l = 4, 3
	g, err := K1ExpandCtx(nil, s, tbl, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := make1KConstrained(nil, s, tbl, g, k, distinctL(l), sens); err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKK(s, tbl, g, k) {
		t.Error("diverse coupling lost (k,k)")
	}
	minDiv, err := anonymity.MinCandidateDiversity(s, tbl, g, sens)
	if err != nil {
		t.Fatal(err)
	}
	if minDiv < l {
		t.Errorf("min candidate diversity %d < l=%d", minDiv, l)
	}
}

func TestKKAnonymizeDiverse(t *testing.T) {
	ds := datagen.ART(100, 8)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k, l = 4, 2
	g, err := KKAnonymizeCtx(nil, s, ds.Table, k, K1ByExpansion, distinctL(l), ds.Sensitive, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKK(s, ds.Table, g, k) {
		t.Error("not (k,k)")
	}
	minDiv, err := anonymity.MinCandidateDiversity(s, ds.Table, g, ds.Sensitive)
	if err != nil {
		t.Fatal(err)
	}
	if minDiv < l {
		t.Errorf("min candidate diversity %d < %d", minDiv, l)
	}
	// Both post-passes are greedy, so neither strictly dominates; the
	// diverse release should still be in the same cost regime as the
	// unconstrained one (within 50%).
	gp, err := KKAnonymizeCtx(nil, s, ds.Table, k, K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ld, lp := loss.TableLoss(em, g), loss.TableLoss(em, gp)
	if ld > lp*1.5+1e-9 || lp > ld*1.5+1e-9 {
		t.Errorf("diverse loss %v and plain loss %v differ wildly", ld, lp)
	}
}

func TestKKAnonymizeDiverseErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	s, tbl := testSpace(t, rng, 10, "lm")
	sens := sensitiveFor(rng, tbl.Len(), 2)
	if _, err := KKAnonymizeCtx(nil, s, tbl, 2, K1Algorithm(9), distinctL(2), sens, 0); err == nil {
		t.Error("expected unknown algorithm error")
	}
	_, err := KKAnonymizeCtx(nil, s, tbl, 2, K1ByExpansion, distinctL(3), sens, 0)
	if err == nil || !strings.Contains(err.Error(), "unattainable") {
		t.Errorf("two sensitive values, l=3: err = %v, want an unattainable-diversity error", err)
	}
	if _, err := make1KConstrained(nil, s, tbl, nil, 2, distinctL(2), sens); err == nil {
		t.Error("expected nil/length error")
	}
}
