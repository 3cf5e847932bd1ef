package attack

import (
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// twoReleaseSetup publishes two overlapping suppress-only releases of a
// 4-individual population:
//
//	release A covers {0,1,2}: rows 0,1 suppressed, row 2 identity
//	release B covers {1,2,3}: rows 1,2 suppressed, row 3 identity
//
// Each alone gives individuals 1 and 2 two candidates; the intersection
// pins both exactly.
func twoReleaseSetup(t *testing.T) []Release {
	t.Helper()
	s, tbl := suppressOnly(t, 4)
	mk := func(ids []int, gen func(g *table.GenTable)) Release {
		sub := table.New(tbl.Schema)
		for _, id := range ids {
			sub.MustAppend(tbl.Records[id])
		}
		g := table.NewGen(tbl.Schema, len(ids))
		gen(g)
		return Release{Space: s, Tbl: sub, Gen: g, IDs: ids}
	}
	root := s.Hiers[0].Root()
	a := mk([]int{0, 1, 2}, func(g *table.GenTable) {
		g.Records[0][0] = root
		g.Records[1][0] = root
		g.Records[2][0] = s.Hiers[0].LeafOf(2)
	})
	b := mk([]int{1, 2, 3}, func(g *table.GenTable) {
		g.Records[0][0] = root
		g.Records[1][0] = root
		g.Records[2][0] = s.Hiers[0].LeafOf(3)
	})
	return []Release{a, b}
}

func TestIntersectionShrinksCandidates(t *testing.T) {
	rels := twoReleaseSetup(t)
	outcomes, err := SimulateIntersection(rels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outcomes))
	}
	want := map[int]struct{ releases, candidates int }{
		// Individual 0 appears only in A: candidates {0,1} (the suppressed
		// rows; identity row 2 is inconsistent with value a).
		0: {1, 2},
		// Individual 1 appears in both: A gives {0,1}, B gives {1,2} → {1} —
		// pinned exactly, although each release alone honours (1,2).
		1: {2, 1},
		// Individual 2 is consistent with every row of A ({0,1,2}) and the
		// suppressed rows of B ({1,2}): intersection {1,2}.
		2: {2, 2},
		// Individual 3 appears only in B and is consistent with all three
		// of its rows.
		3: {1, 3},
	}
	for _, o := range outcomes {
		w := want[o.ID]
		if o.Releases != w.releases || o.Candidates != w.candidates {
			t.Errorf("id %d: releases=%d candidates=%d, want %+v", o.ID, o.Releases, o.Candidates, w)
		}
	}
}

func TestIntersectionSensitiveExposure(t *testing.T) {
	rels := twoReleaseSetup(t)
	// Individual 1 is pinned to a single candidate — its sensitive value
	// leaks regardless of the values; 0 has candidates {0,1} with
	// identical sensitive values, also exposed. 2 ({1,2} → {7,8}) and 3
	// ({1,2,3} → {7,8,9}) keep heterogeneous candidate sets.
	sensitive := []int{7, 7, 8, 9}
	outcomes, err := SimulateIntersection(rels, sensitive)
	if err != nil {
		t.Fatal(err)
	}
	exposed := map[int]bool{}
	for _, o := range outcomes {
		exposed[o.ID] = o.SensitiveExposed
	}
	for id, want := range map[int]bool{0: true, 1: true, 2: false, 3: false} {
		if exposed[id] != want {
			t.Errorf("id %d exposed = %v, want %v", id, exposed[id], want)
		}
	}
	// Distinct values across 0's candidate pair block homogeneity.
	sensitive = []int{7, 6, 8, 9}
	outcomes, err = SimulateIntersection(rels, sensitive)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.ID == 0 && o.SensitiveExposed {
			t.Error("id 0 with heterogeneous candidates reported exposed")
		}
	}
}

// TestIntersectionOverlappingWindowsKK: deriving the canonical overlapping
// windows from one (k,k) run yields a well-formed scenario whose
// single-release candidates respect (1,k), and whose intersected
// candidates can only shrink.
func TestIntersectionOverlappingWindowsKK(t *testing.T) {
	ds := datagen.ART(90, 11)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKK(s, ds.Table, g, k) {
		t.Fatal("pipeline output not (k,k)")
	}
	rels, err := OverlappingWindows(s, ds.Table, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("got %d releases, want 2", len(rels))
	}
	n := ds.Table.Len()
	if rels[0].IDs[0] != 0 || rels[1].IDs[len(rels[1].IDs)-1] != n-1 {
		t.Errorf("window ids do not span the population")
	}
	outcomes, err := SimulateIntersection(rels, ds.Sensitive)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != n {
		t.Fatalf("got %d outcomes for %d individuals", len(outcomes), n)
	}
	both := 0
	for _, o := range outcomes {
		if o.Candidates < 1 {
			t.Errorf("id %d has an empty candidate set (the true record always survives)", o.ID)
		}
		if o.Releases == 2 {
			both++
		}
	}
	if both == 0 {
		t.Error("no individual appears in both windows")
	}
}

func TestIntersectionErrors(t *testing.T) {
	s, tbl := suppressOnly(t, 3)
	g := table.NewGen(tbl.Schema, 3)
	bad := Release{Space: s, Tbl: tbl, Gen: g, IDs: []int{0, 1}}
	if _, err := SimulateIntersection([]Release{bad}, nil); err == nil {
		t.Error("expected id-length mismatch error")
	}
	dup := Release{Space: s, Tbl: tbl, Gen: g, IDs: []int{0, 0, 1}}
	if _, err := SimulateIntersection([]Release{dup}, nil); err == nil {
		t.Error("expected duplicate-id error")
	}
	neg := Release{Space: s, Tbl: tbl, Gen: g, IDs: []int{-1, 0, 1}}
	if _, err := SimulateIntersection([]Release{neg}, nil); err == nil {
		t.Error("expected negative-id error")
	}
	out, err := SimulateIntersection(nil, nil)
	if err != nil || len(out) != 0 {
		t.Errorf("no releases: %v, %v", out, err)
	}
	empty, err := OverlappingWindows(s, tbl, table.NewGen(tbl.Schema, 0))
	if err == nil || empty != nil {
		t.Error("expected length mismatch from OverlappingWindows")
	}
}
