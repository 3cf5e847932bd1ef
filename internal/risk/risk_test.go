package risk

import (
	"math"
	"strings"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

const eps = 1e-12

func tinySetup(t *testing.T) (*cluster.Space, *table.Table) {
	t.Helper()
	schema := table.MustSchema(table.MustAttribute("x", []string{"a", "b", "c", "d"}))
	tbl := table.New(schema)
	for v := 0; v < 4; v++ {
		tbl.MustAppend(table.Record{v})
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(4)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func TestAssessByClass(t *testing.T) {
	s, tbl := tinySetup(t)
	g := table.NewGen(tbl.Schema, 4)
	root := s.Hiers[0].Root()
	// Two suppressed rows (class of 2), two identity rows (classes of 1).
	g.Records[0][0] = root
	g.Records[1][0] = root
	g.Records[2][0] = s.Hiers[0].LeafOf(2)
	g.Records[3][0] = s.Hiers[0].LeafOf(3)
	rep, err := Assess(s, tbl, g, ByClass)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Prosecutor[0]-0.5) > eps || math.Abs(rep.Prosecutor[2]-1.0) > eps {
		t.Errorf("prosecutor = %v", rep.Prosecutor)
	}
	if rep.Journalist != 1.0 {
		t.Errorf("journalist = %v, want 1", rep.Journalist)
	}
	if want := (0.5 + 0.5 + 1 + 1) / 4; math.Abs(rep.Marketer-want) > eps {
		t.Errorf("marketer = %v, want %v", rep.Marketer, want)
	}
	if rep.AtRiskCount(2) != 2 {
		t.Errorf("AtRiskCount(2) = %d, want 2", rep.AtRiskCount(2))
	}
	if !strings.Contains(rep.String(), "journalist=1.0000") {
		t.Errorf("String() = %q", rep.String())
	}
}

func TestAssessModelsOrdering(t *testing.T) {
	// For a (k,k) release: matches ⊆ neighbours, so match-based risk ≥
	// neighbour-based risk per record; class-based is the coarsest.
	ds := datagen.ART(100, 31)
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
	byN, err := Assess(s, ds.Table, g, ByNeighbors)
	if err != nil {
		t.Fatal(err)
	}
	byM, err := Assess(s, ds.Table, g, ByMatches)
	if err != nil {
		t.Fatal(err)
	}
	for i := range byN.Prosecutor {
		if byM.Prosecutor[i] < byN.Prosecutor[i]-eps {
			t.Fatalf("record %d: match risk %v below neighbour risk %v",
				i, byM.Prosecutor[i], byN.Prosecutor[i])
		}
	}
	// (k,k) bounds neighbour-based journalist risk by 1/k.
	if byN.Journalist > 1.0/float64(k)+eps {
		t.Errorf("neighbour journalist risk %v exceeds 1/k", byN.Journalist)
	}
}

func TestAssessKAnonymousBoundsClassRisk(t *testing.T) {
	ds := datagen.CMC(90, 33)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	g, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Assess(s, ds.Table, g, ByClass)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Journalist > 1.0/float64(k)+eps {
		t.Errorf("k-anonymous release has class journalist risk %v > 1/k", rep.Journalist)
	}
	if rep.AtRiskCount(k) != 0 {
		t.Errorf("%d records at risk in a k-anonymous release", rep.AtRiskCount(k))
	}
}

func TestAssessErrors(t *testing.T) {
	s, tbl := tinySetup(t)
	g := table.NewGen(tbl.Schema, 4)
	if _, err := Assess(s, nil, g, ByNeighbors); err == nil {
		t.Error("expected missing-table error")
	}
	if _, err := Assess(s, nil, g, ByMatches); err == nil {
		t.Error("expected missing-table error")
	}
	if _, err := Assess(s, tbl, g, Model(9)); err == nil {
		t.Error("expected unknown-model error")
	}
	empty := table.NewGen(tbl.Schema, 0)
	rep, err := Assess(s, nil, empty, ByClass)
	if err != nil || rep.Marketer != 0 {
		t.Errorf("empty release: %+v, %v", rep, err)
	}
}

func TestModelString(t *testing.T) {
	if ByClass.String() != "class" || ByNeighbors.String() != "neighbors" || ByMatches.String() != "matches" {
		t.Error("model names wrong")
	}
	if Model(9).String() == "" {
		t.Error("unknown model should render")
	}
}
