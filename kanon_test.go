package kanon

import (
	"bytes"
	"strings"
	"testing"
)

const facadeCSV = `age,city
30,haifa
31,haifa
32,tel-aviv
40,tel-aviv
41,jerusalem
42,jerusalem
30,haifa
40,tel-aviv
`

const facadeHier = `{"attributes": [
  {"attribute": "age", "subsets": [
    {"label": "30s", "values": ["30", "31", "32"]},
    {"label": "40s", "values": ["40", "41", "42"]}
  ]},
  {"attribute": "city", "subsets": [
    {"label": "north", "values": ["haifa", "tel-aviv"]}
  ]}
]}`

func loadFacadeTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := LoadCSV(strings.NewReader(facadeCSV), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetHierarchiesJSON(strings.NewReader(facadeHier)); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestLoadCSVAndAccessors(t *testing.T) {
	tbl := loadFacadeTable(t)
	if tbl.Len() != 8 || tbl.NumAttrs() != 2 {
		t.Errorf("Len=%d NumAttrs=%d", tbl.Len(), tbl.NumAttrs())
	}
	names := tbl.AttrNames()
	if names[0] != "age" || names[1] != "city" {
		t.Errorf("AttrNames = %v", names)
	}
	if row := tbl.Row(0); row[0] != "30" || row[1] != "haifa" {
		t.Errorf("Row(0) = %v", row)
	}
	if tbl.SensitiveValue(0) != "" {
		t.Error("CSV table has no sensitive attribute")
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "age,city\n30,haifa\n") {
		t.Errorf("WriteCSV = %q", buf.String())
	}
}

func TestLoadCSVError(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), true); err == nil {
		t.Error("expected error for empty CSV")
	}
}

func TestSetHierarchiesJSONError(t *testing.T) {
	tbl, err := LoadCSV(strings.NewReader(facadeCSV), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetHierarchiesJSON(strings.NewReader("garbage")); err == nil {
		t.Error("expected parse error")
	}
}

func TestAnonymizeNotions(t *testing.T) {
	tbl := loadFacadeTable(t)
	const k = 3
	for _, notion := range []Notion{NotionK, NotionKK, NotionGlobal1K} {
		res, err := Anonymize(tbl, Options{K: k, Notion: notion})
		if err != nil {
			t.Fatalf("%s: %v", notion, err)
		}
		rep := res.Verify(k)
		if !rep.Generalization {
			t.Errorf("%s: not a valid generalization", notion)
		}
		switch notion {
		case NotionK:
			if !rep.KAnonymous {
				t.Errorf("NotionK output not k-anonymous")
			}
		case NotionKK:
			if !rep.KK {
				t.Errorf("NotionKK output not (k,k)-anonymous")
			}
		case NotionGlobal1K:
			if !rep.Global1K {
				t.Errorf("NotionGlobal1K output not global (1,k)-anonymous")
			}
		}
		if res.Len() != tbl.Len() {
			t.Errorf("%s: %d generalized records for %d originals", notion, res.Len(), tbl.Len())
		}
	}
}

func TestAnonymizeMeasuresAndVariants(t *testing.T) {
	tbl := loadFacadeTable(t)
	for _, m := range []MeasureName{MeasureEntropy, MeasureMonotoneEntropy, MeasureLM, MeasureTree} {
		res, err := Anonymize(tbl, Options{K: 2, Notion: NotionK, Measure: m})
		if err != nil {
			t.Fatalf("measure %s: %v", m, err)
		}
		if res.Loss() < 0 {
			t.Errorf("measure %s: negative loss", m)
		}
	}
	for _, d := range []string{"d1", "d2", "d3", "d4", "nc"} {
		res, err := Anonymize(tbl, Options{K: 2, Notion: NotionK, Distance: d})
		if err != nil {
			t.Fatalf("distance %s: %v", d, err)
		}
		if !res.Verify(2).KAnonymous {
			t.Errorf("distance %s: not 2-anonymous", d)
		}
	}
	if _, err := Anonymize(tbl, Options{K: 2, Notion: NotionK, Algorithm: AlgModified}); err != nil {
		t.Errorf("modified: %v", err)
	}
	if _, err := Anonymize(tbl, Options{K: 2, Notion: NotionK, Algorithm: AlgForest}); err != nil {
		t.Errorf("forest: %v", err)
	}
	if _, err := Anonymize(tbl, Options{K: 2, Notion: NotionKK, Algorithm: AlgNearest}); err != nil {
		t.Errorf("nearest coupling: %v", err)
	}
	if _, err := Anonymize(tbl, Options{K: 2, Notion: NotionGlobal1K, Algorithm: AlgNearest}); err != nil {
		t.Errorf("nearest global: %v", err)
	}
}

func TestAnonymizeErrors(t *testing.T) {
	tbl := loadFacadeTable(t)
	if _, err := Anonymize(tbl, Options{K: 0}); err == nil {
		t.Error("expected K validation error")
	}
	if _, err := Anonymize(tbl, Options{K: 2, Notion: "bogus"}); err == nil {
		t.Error("expected unknown notion error")
	}
	if _, err := Anonymize(tbl, Options{K: 2, Measure: "bogus"}); err == nil {
		t.Error("expected unknown measure error")
	}
	if _, err := Anonymize(tbl, Options{K: 2, Notion: NotionK, Distance: "bogus"}); err == nil {
		t.Error("expected unknown distance error")
	}
}

func TestResultInspection(t *testing.T) {
	tbl := loadFacadeTable(t)
	res, err := Anonymize(tbl, Options{K: 4, Notion: NotionK})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Row(0)
	if len(row) != 2 {
		t.Fatalf("Row arity = %d", len(row))
	}
	sizes := res.GroupSizes()
	for _, s := range sizes {
		if s < 4 {
			t.Errorf("group of size %d below k", s)
		}
	}
	if dm := res.Discernibility(); dm < tbl.Len() {
		t.Errorf("DM = %d below n", dm)
	}
	lm, err := res.LossUnder(MeasureLM)
	if err != nil || lm <= 0 || lm > 1 {
		t.Errorf("LossUnder(LM) = %v, %v", lm, err)
	}
	if _, err := res.LossUnder("bogus"); err == nil {
		t.Error("expected unknown measure error")
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "age,city\n") {
		t.Errorf("WriteCSV header missing: %q", buf.String())
	}
	if _, err := res.IsDistinctLDiverse(2); err == nil {
		t.Error("expected no-sensitive-attribute error")
	}
}

func TestBenchmarkGenerators(t *testing.T) {
	art := ART(30, 1)
	if art.Len() != 30 || art.NumAttrs() != 6 {
		t.Errorf("ART: %d×%d", art.Len(), art.NumAttrs())
	}
	adt := Adult(30, 1)
	if adt.Len() != 30 || adt.NumAttrs() != 9 {
		t.Errorf("Adult: %d×%d", adt.Len(), adt.NumAttrs())
	}
	cmc := CMC(30, 1)
	if cmc.Len() != 30 || cmc.NumAttrs() != 9 {
		t.Errorf("CMC: %d×%d", cmc.Len(), cmc.NumAttrs())
	}
	if adt.SensitiveValue(0) == "" {
		t.Error("Adult should carry a sensitive attribute")
	}
}

func TestLDiversityOnBenchmark(t *testing.T) {
	tbl := CMC(120, 3)
	res, err := Anonymize(tbl, Options{K: 6, Notion: NotionKK})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.IsDistinctLDiverse(1); err != nil {
		t.Errorf("IsDistinctLDiverse: %v", err)
	}
}

func TestResultRisk(t *testing.T) {
	tbl := loadFacadeTable(t)
	const k = 3
	res, err := Anonymize(tbl, Options{K: k, Notion: NotionKK})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"class", "neighbors", "matches"} {
		sum, err := res.Risk(model, k)
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		if sum.Journalist <= 0 || sum.Journalist > 1 {
			t.Errorf("%s: journalist risk %v out of (0,1]", model, sum.Journalist)
		}
		if sum.Marketer > sum.Journalist+1e-12 {
			t.Errorf("%s: marketer %v exceeds journalist %v", model, sum.Marketer, sum.Journalist)
		}
	}
	// (k,k) bounds the first adversary: nobody at risk under "neighbors".
	nb, err := res.Risk("neighbors", k)
	if err != nil {
		t.Fatal(err)
	}
	if nb.AtRisk != 0 {
		t.Errorf("neighbors AtRisk = %d in a (k,k) release", nb.AtRisk)
	}
	if _, err := res.Risk("bogus", k); err == nil {
		t.Error("expected unknown model error")
	}
}

func TestResultAttackEvaluation(t *testing.T) {
	const k = 3
	tbl := ART(60, 5)
	res, err := Anonymize(tbl, Options{K: k, Notion: NotionGlobal1K})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := res.AttackEvaluation(k)
	if err != nil {
		t.Fatal(err)
	}
	if sum.K != k || sum.Records != tbl.Len() {
		t.Errorf("summary header = k=%d records=%d", sum.K, sum.Records)
	}
	// Global (1,k) defeats the matching attack by construction, and the
	// refinement attack by the containment theorem.
	if sum.Matching.Vulnerable != 0 || sum.Matching.MinCandidates < k {
		t.Errorf("matching attack breached a global release: %+v", sum.Matching)
	}
	if sum.Refinement.Vulnerable != 0 {
		t.Errorf("refinement attack breached a global release: %+v", sum.Refinement)
	}
	if sum.VulnerableUnion != sum.Intersection.Vulnerable {
		t.Errorf("union %d should equal the intersection-only count %d",
			sum.VulnerableUnion, sum.Intersection.Vulnerable)
	}
	if sum.Score < 0 || sum.Score > 100 {
		t.Errorf("score %v out of [0,100]", sum.Score)
	}
	// The weakest notion is at least as vulnerable overall.
	weak, err := Anonymize(tbl, Options{K: k, Notion: NotionKK})
	if err != nil {
		t.Fatal(err)
	}
	weakSum, err := weak.AttackEvaluation(k)
	if err != nil {
		t.Fatal(err)
	}
	if weakSum.Matching.MinCandidates > sum.Matching.MinCandidates {
		t.Errorf("(k,k) min matching candidates %d exceed global's %d",
			weakSum.Matching.MinCandidates, sum.Matching.MinCandidates)
	}
	if _, err := res.AttackEvaluation(0); err == nil {
		t.Error("expected invalid-k error")
	}
}

func TestAnonymizeFullDomain(t *testing.T) {
	tbl := loadFacadeTable(t)
	res, err := Anonymize(tbl, Options{K: 3, Notion: NotionK, Algorithm: AlgFullDomain})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verify(3).KAnonymous {
		t.Error("full-domain output not 3-anonymous")
	}
	// Full-domain can never be cheaper than the best local recoding run on
	// the same instance... both heuristics, but local should win here.
	local, err := Anonymize(tbl, Options{K: 3, Notion: NotionK})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss() < local.Loss()-1e-9 {
		t.Logf("note: full-domain %.4f beat local heuristic %.4f on this instance", res.Loss(), local.Loss())
	}
	if _, err := Anonymize(tbl, Options{K: 3, Notion: NotionKK, Algorithm: AlgFullDomain}); err == nil {
		t.Error("expected an error for full-domain under the (k,k) notion")
	}
}

func TestAnonymizeDiversity(t *testing.T) {
	tbl := ART(120, 9)
	const k, l = 4, 2
	for _, notion := range []Notion{NotionK, NotionKK} {
		res, err := Anonymize(tbl, Options{K: k, Notion: notion, Constraints: []Constraint{DistinctDiversity(l)}})
		if err != nil {
			t.Fatalf("%s: %v", notion, err)
		}
		div, err := res.CandidateDiversity()
		if err != nil {
			t.Fatal(err)
		}
		if div < l {
			t.Errorf("%s: candidate diversity %d < %d", notion, div, l)
		}
		if notion == NotionK {
			ok, err := res.IsDistinctLDiverse(l)
			if err != nil || !ok {
				t.Errorf("%s: release not distinct %d-diverse (%v)", notion, l, err)
			}
		}
	}
	// A constraint without a sensitive attribute is an error.
	plain := loadFacadeTable(t)
	if _, err := Anonymize(plain, Options{K: 2, Constraints: []Constraint{DistinctDiversity(2)}}); err == nil {
		t.Error("expected sensitive-attribute error")
	}
	if _, err := Anonymize(tbl, Options{K: 2, Notion: NotionK, Algorithm: AlgForest, Constraints: []Constraint{DistinctDiversity(2)}}); err == nil {
		t.Error("expected diversity-with-baseline error")
	}
}

func TestAnonymizePartitioned(t *testing.T) {
	tbl := Adult(400, 21)
	const k = 5
	res, err := Anonymize(tbl, Options{K: k, Notion: NotionK, MaxChunk: 80})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verify(k).KAnonymous {
		t.Error("partitioned output not k-anonymous")
	}
	if _, err := Anonymize(tbl, Options{K: k, Notion: NotionK, MaxChunk: 80, Constraints: []Constraint{DistinctDiversity(2)}}); err == nil {
		t.Error("expected MaxChunk+Constraints exclusion error")
	}
}

func TestMeasureSuppression(t *testing.T) {
	tbl := loadFacadeTable(t)
	res, err := Anonymize(tbl, Options{K: 3, Notion: NotionKK, Measure: MeasureSuppression})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := res.LossUnder(MeasureSuppression)
	if err != nil {
		t.Fatal(err)
	}
	if sup < 0 || sup > 1 {
		t.Errorf("suppression fraction %v out of [0,1]", sup)
	}
	if _, err := res.CandidateDiversity(); err == nil {
		t.Error("expected no-sensitive-attribute error")
	}
}

func TestGlobalMatchingCountersExposed(t *testing.T) {
	tbl := ART(80, 5)
	res, err := Anonymize(tbl, Options{K: 4, Notion: NotionGlobal1K})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Counter("core.global.matchings") < 1 {
		t.Errorf("no matching rebuilds recorded for a global-(1,k) run: %s", st.JSON())
	}
	if st.Counter("core.global.steps") < 0 || st.Counter("core.global.deficient") < 0 {
		t.Errorf("stats malformed: %s", st.JSON())
	}
	if !res.Verify(4).Global1K {
		t.Error("global notion not satisfied")
	}
}
