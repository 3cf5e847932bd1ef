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

func TestInformedNoKnowledgeEqualsSecondAdversary(t *testing.T) {
	ds := datagen.ART(90, 14)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	informed, err := SimulateInformed(s, ds.Table, g, ds.Sensitive, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := anonymity.MatchCounts(s, ds.Table, g)
	for i := range base {
		if informed[i] != base[i] {
			t.Fatalf("record %d: informed-with-nothing %d != second adversary %d",
				i, informed[i], base[i])
		}
	}
}

func TestInformedKnowledgeOnlyShrinksCandidates(t *testing.T) {
	ds := datagen.ART(90, 15)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err = core.MakeGlobal1KCtx(nil, s, ds.Table, g, k)
	if err != nil {
		t.Fatal(err)
	}
	base := anonymity.MatchCounts(s, ds.Table, g)
	known := []int{0, 5, 10, 15, 20, 25, 30, 35, 40}
	informed, err := SimulateInformed(s, ds.Table, g, ds.Sensitive, known)
	if err != nil {
		t.Fatal(err)
	}
	shrunk := false
	for i := range base {
		if informed[i] > base[i] {
			t.Fatalf("record %d: knowledge increased candidates (%d > %d)", i, informed[i], base[i])
		}
		if informed[i] < base[i] {
			shrunk = true
		}
	}
	// With nine known private values, some candidate set should shrink —
	// demonstrating that even global (1,k)-anonymity does not bound this
	// stronger adversary.
	if !shrunk {
		t.Log("note: no candidate set shrank under this seed; acceptable but unusual")
	}
	// The target's own record can never be pruned away.
	for i, c := range informed {
		if c < 1 {
			t.Errorf("record %d has %d candidates; its own row is always consistent", i, c)
		}
	}
}

func TestInformedErrors(t *testing.T) {
	s, tbl := suppressOnly(t, 4)
	g := table.NewGen(tbl.Schema, 4)
	for i := range g.Records {
		g.Records[i][0] = s.Hiers[0].LeafOf(i)
	}
	if _, err := SimulateInformed(s, tbl, g, []int{1}, nil); err == nil {
		t.Error("expected sensitive-length error")
	}
	if _, err := SimulateInformed(s, tbl, g, []int{1, 2, 3, 4}, []int{9}); err == nil {
		t.Error("expected known-index error")
	}
	short := table.NewGen(tbl.Schema, 2)
	if _, err := SimulateInformed(s, tbl, short, []int{1, 2, 3, 4}, nil); err == nil {
		t.Error("expected length mismatch error")
	}
}
