package attack

import (
	"math/rand"
	"strings"
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// suppressOnly builds a 1-attribute table of n distinct values with the
// suppress-only hierarchy.
func suppressOnly(t *testing.T, n int) (*cluster.Space, *table.Table) {
	t.Helper()
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
	return s, tbl
}

// TestOneKAttackBreached reproduces the Section IV-A failure of bare
// (1,k)-anonymity: keep n−k records, suppress k. The release is
// (1,k)-anonymous — so by construction the naive candidate count of the
// first adversary is ≥ k everywhere — yet an adversary who reasons about
// which linkings are jointly possible (the match analysis) re-identifies
// every untouched record: its identity row can belong to nobody else, so
// the candidate set collapses to size 1 and the sensitive value leaks.
func TestOneKAttackBreached(t *testing.T) {
	const n, k = 6, 2
	s, tbl := suppressOnly(t, n)
	g := table.NewGen(tbl.Schema, n)
	for i := 0; i < n-k; i++ {
		g.Records[i][0] = s.Hiers[0].LeafOf(i)
	}
	for i := n - k; i < n; i++ {
		g.Records[i][0] = s.Hiers[0].Root()
	}
	if !anonymity.Check(s, tbl, g, k).OneK {
		t.Fatal("construction should be (1,k)-anonymous")
	}
	if anonymity.Check(s, tbl, g, k).KOne {
		t.Fatal("construction should fail (k,1) — that is its weakness")
	}
	sensitive := []int{0, 0, 1, 1, 2, 2}
	outcomes, err := Simulate(s, tbl, g, sensitive)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(outcomes, k)
	// (1,k) holds, so the naive candidate count cannot breach...
	if sum.Breaches1 != 0 {
		t.Errorf("naive candidate counting breached a (1,k) release: %+v", sum)
	}
	// ...but the match analysis re-identifies all n−k untouched records.
	if sum.Breaches2 < n-k {
		t.Errorf("expected ≥ %d match-analysis breaches, got %d", n-k, sum.Breaches2)
	}
	if sum.Exposed2 < n-k {
		t.Errorf("expected ≥ %d sensitive exposures, got %d", n-k, sum.Exposed2)
	}
	if sum.MinCandidates2 != 1 {
		t.Errorf("min match candidates = %d, want 1", sum.MinCandidates2)
	}
}

// TestKKSafeFromFirstAdversary: a (k,k)-anonymization yields candidate
// sets ≥ k for the first adversary on every record.
func TestKKSafeFromFirstAdversary(t *testing.T) {
	ds := datagen.ART(120, 3)
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
	outcomes, err := Simulate(s, ds.Table, g, ds.Sensitive)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(outcomes, k)
	if sum.Breaches1 != 0 {
		t.Errorf("first adversary breached a (k,k) release %d times", sum.Breaches1)
	}
	if sum.MinCandidates1 < k {
		t.Errorf("min candidates %d < k", sum.MinCandidates1)
	}
}

// TestGlobalSafeFromBothAdversaries: after Algorithm 6, even the second
// adversary sees ≥ k candidates everywhere.
func TestGlobalSafeFromBothAdversaries(t *testing.T) {
	ds := datagen.ART(120, 4)
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
	outcomes, err := Simulate(s, ds.Table, g, ds.Sensitive)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(outcomes, k)
	if sum.Breaches1 != 0 || sum.Breaches2 != 0 {
		t.Errorf("global release breached: %+v", sum)
	}
}

// TestSecondAdversaryStrictlyStronger finds a (k,k) release where the
// second adversary breaches but the first does not — the separation that
// motivates Algorithm 6.
func TestSecondAdversaryStrictlyStronger(t *testing.T) {
	found := false
	for seed := int64(0); seed < 12 && !found; seed++ {
		ds := datagen.ART(100, seed)
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
		outcomes, err := Simulate(s, ds.Table, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := Summarize(outcomes, k)
		if sum.Breaches1 == 0 && sum.Breaches2 > 0 {
			found = true
		}
	}
	if !found {
		t.Skip("no (k,k) release with second-adversary-only breaches in the seed range")
	}
}

func TestCandidateCountsMatchVerifiers(t *testing.T) {
	// Adversary-2 candidate counts must equal anonymity.MatchCounts.
	ds := datagen.CMC(80, 5)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.KKAnonymizeCtx(nil, s, ds.Table, 3, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := Simulate(s, ds.Table, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := anonymity.MatchCounts(s, ds.Table, g)
	for i, o := range outcomes {
		if o.Candidates2 != counts[i] {
			t.Fatalf("record %d: attack says %d matches, verifier says %d", i, o.Candidates2, counts[i])
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	s, tbl := suppressOnly(t, 4)
	short := table.NewGen(tbl.Schema, 2)
	if _, err := Simulate(s, tbl, short, nil); err == nil {
		t.Error("expected length mismatch error")
	}
	g := table.NewGen(tbl.Schema, 4)
	if _, err := Simulate(s, tbl, g, []int{1}); err == nil {
		t.Error("expected sensitive length error")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := Summarize(nil, 3)
	if sum.Breaches1 != 0 || sum.MinCandidates1 != 0 {
		t.Errorf("empty summary = %+v", sum)
	}
}

func TestSummaryString(t *testing.T) {
	sum := Summary{K: 3, Breaches1: 1, MinCandidates1: 2}
	str := sum.String()
	if !strings.Contains(str, "k=3") || !strings.Contains(str, "breaches=1") {
		t.Errorf("summary string %q", str)
	}
}

func TestHomogeneous(t *testing.T) {
	sens := []int{0, 0, 1}
	if !homogeneous([]int{0, 1}, sens) {
		t.Error("same-value candidates should be homogeneous")
	}
	if homogeneous([]int{0, 2}, sens) {
		t.Error("mixed candidates should not be homogeneous")
	}
	if homogeneous(nil, sens) {
		t.Error("empty candidate set is not homogeneous")
	}
}

// TestNoPerfectMatching covers the degenerate branch where the consistency
// graph admits no perfect matching: adversary-2 counts are reported as 0.
func TestNoPerfectMatching(t *testing.T) {
	s, tbl := suppressOnly(t, 3)
	g := table.NewGen(tbl.Schema, 3)
	for i := range g.Records {
		g.Records[i][0] = s.Hiers[0].LeafOf(0) // all rows claim value 'a'
	}
	outcomes, err := Simulate(s, tbl, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Candidates2 != 0 {
			t.Errorf("record %d: %d matches without a perfect matching", o.Record, o.Candidates2)
		}
	}
	_ = rand.Int
}
