package risk

import (
	"strings"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// artSpace anonymizes an ART dataset and returns the space, table and
// release, plus the sensitive values.
func artSpace(t *testing.T, n int, seed int64, k int, global bool) (*cluster.Space, *table.Table, *table.GenTable, []int) {
	t.Helper()
	ds := datagen.ART(n, seed)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if global {
		g, _, err = core.MakeGlobal1KCtx(nil, s, ds.Table, g, k)
		if err != nil {
			t.Fatal(err)
		}
	}
	return s, ds.Table, g, ds.Sensitive
}

// TestEvaluateAttacksGlobalRelease: a certified global (1,k) release keeps
// the matching and refinement attacks below the vulnerability threshold
// everywhere (containment theorem); only the intersection attack may still
// find victims, and the union reflects exactly that.
func TestEvaluateAttacksGlobalRelease(t *testing.T) {
	const k = 3
	s, tbl, g, sensitive := artSpace(t, 90, 8, k, true)
	rep, err := EvaluateAttacks(s, tbl, g, k, sensitive)
	if err != nil {
		t.Fatal(err)
	}
	n := tbl.Len()
	if rep.Records != n {
		t.Errorf("records = %d, want %d", rep.Records, n)
	}
	if rep.Matching.Vulnerable != 0 {
		t.Errorf("matching attack found %d vulnerable on a global (1,k) release", rep.Matching.Vulnerable)
	}
	if rep.Refinement.Vulnerable != 0 {
		t.Errorf("refinement attack found %d vulnerable on a global (1,k) release", rep.Refinement.Vulnerable)
	}
	if rep.Matching.MinCandidates < k || rep.Refinement.MinCandidates < rep.Matching.MinCandidates {
		t.Errorf("min candidates matching=%d refinement=%d violate containment at k=%d",
			rep.Matching.MinCandidates, rep.Refinement.MinCandidates, k)
	}
	if rep.VulnerableUnion != rep.Intersection.Vulnerable {
		t.Errorf("union = %d, want intersection-only %d", rep.VulnerableUnion, rep.Intersection.Vulnerable)
	}
	wantScore := 100 * float64(rep.VulnerableUnion) / float64(n)
	if diff := rep.Score - wantScore; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("score = %v, want %v", rep.Score, wantScore)
	}
	for _, v := range []AttackVector{rep.Matching, rep.Refinement, rep.Intersection} {
		if v.Population != n {
			t.Errorf("%s population = %d, want %d", v.Attack, v.Population, n)
		}
		wantPct := 100 * float64(v.Vulnerable) / float64(n)
		if diff := v.VulnerablePct - wantPct; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s pct = %v, want %v", v.Attack, v.VulnerablePct, wantPct)
		}
	}
}

// TestEvaluateAttacksWeakRelease: the Section IV-A (1,k) construction —
// identity rows plus suppressed rows — is flagged by the matching attack
// and drives the union score above zero.
func TestEvaluateAttacksWeakRelease(t *testing.T) {
	const n, k = 6, 2
	vals := make([]string, n)
	for i := range vals {
		vals[i] = string(rune('a' + i))
	}
	schema := table.MustSchema(table.MustAttribute("A", vals))
	tbl := table.New(schema)
	for v := 0; v < n; v++ {
		tbl.MustAppend(table.Record{v})
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(n)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	g := table.NewGen(schema, n)
	for i := 0; i < n-k; i++ {
		g.Records[i][0] = hiers[0].LeafOf(i)
	}
	for i := n - k; i < n; i++ {
		g.Records[i][0] = hiers[0].Root()
	}
	sensitive := []int{0, 0, 1, 1, 2, 2}
	rep, err := EvaluateAttacks(s, tbl, g, k, sensitive)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matching.Vulnerable < n-k {
		t.Errorf("matching attack flagged %d records, want ≥ %d", rep.Matching.Vulnerable, n-k)
	}
	if rep.Matching.MinCandidates != 1 {
		t.Errorf("matching min candidates = %d, want 1", rep.Matching.MinCandidates)
	}
	if rep.Matching.Exposed < n-k {
		t.Errorf("matching exposed %d sensitive values, want ≥ %d", rep.Matching.Exposed, n-k)
	}
	if rep.VulnerableUnion < n-k || rep.Score <= 0 {
		t.Errorf("union = %d score = %v, want breach reflected", rep.VulnerableUnion, rep.Score)
	}
}

// TestEvaluateAttacksNoPerfectMatching: an invalid positional release —
// the injected-weakening shape the regression harness guards against —
// collapses the matching attack to zero candidates and flags the entire
// population.
func TestEvaluateAttacksNoPerfectMatching(t *testing.T) {
	const n, k = 3, 2
	vals := []string{"a", "b", "c"}
	schema := table.MustSchema(table.MustAttribute("A", vals))
	tbl := table.New(schema)
	for v := 0; v < n; v++ {
		tbl.MustAppend(table.Record{v})
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(n)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	g := table.NewGen(schema, n)
	for i := range g.Records {
		g.Records[i][0] = hiers[0].LeafOf(0) // every row claims value "a"
	}
	rep, err := EvaluateAttacks(s, tbl, g, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matching.Vulnerable != n || rep.Matching.MinCandidates != 0 {
		t.Errorf("collapsed release: matching = %+v, want all %d vulnerable at 0 candidates", rep.Matching, n)
	}
	if rep.VulnerableUnion != n || rep.Score != 100 {
		t.Errorf("union = %d score = %v, want total vulnerability", rep.VulnerableUnion, rep.Score)
	}
}

func TestEvaluateAttacksErrors(t *testing.T) {
	s, tbl, g, sensitive := artSpace(t, 30, 1, 2, false)
	if _, err := EvaluateAttacks(s, tbl, table.NewGen(g.Schema, 2), 2, nil); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, err := EvaluateAttacks(s, tbl, g, 0, nil); err == nil {
		t.Error("expected invalid-k error")
	}
	if _, err := EvaluateAttacks(s, tbl, g, 2, sensitive[:3]); err == nil {
		t.Error("expected sensitive length error")
	}
}

func TestEvaluateAttacksEmpty(t *testing.T) {
	schema := table.MustSchema(table.MustAttribute("A", []string{"a"}))
	tbl := table.New(schema)
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(1)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EvaluateAttacks(s, tbl, table.NewGen(schema, 0), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 0 || rep.VulnerableUnion != 0 || rep.Score != 0 {
		t.Errorf("empty release report = %+v", rep)
	}
}

func TestAttackReportString(t *testing.T) {
	s, tbl, g, sensitive := artSpace(t, 40, 2, 2, false)
	rep, err := EvaluateAttacks(s, tbl, g, 2, sensitive)
	if err != nil {
		t.Fatal(err)
	}
	str := rep.String()
	for _, want := range []string{"k=2", "matching", "refinement", "intersection", "union"} {
		if !strings.Contains(str, want) {
			t.Errorf("report string %q missing %q", str, want)
		}
	}
}
