package anonymity

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// prop45 builds the exact worked example from the proof of Proposition 4.5:
// a table with two attributes (domains {1,2} and {3,4}) and three records
// (1,3), (1,4), (2,4), with suppress-only hierarchies.
func prop45(t *testing.T) (*cluster.Space, *table.Table) {
	t.Helper()
	schema := table.MustSchema(
		table.MustAttribute("A", []string{"1", "2"}),
		table.MustAttribute("B", []string{"3", "4"}),
	)
	tbl := table.New(schema)
	tbl.MustAppend(table.Record{0, 0}) // (1,3)
	tbl.MustAppend(table.Record{0, 1}) // (1,4)
	tbl.MustAppend(table.Record{1, 1}) // (2,4)
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(2), hierarchy.Flat(2)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// prop45Gen builds one of the four generalizations of the example; each
// entry is a leaf value id or -1 for the generalized set ({1,2} or {3,4},
// i.e. the root).
func prop45Gen(s *cluster.Space, rows [][2]int) *table.GenTable {
	g := table.NewGen(&table.Schema{Attrs: []*table.Attribute{
		table.MustAttribute("A", []string{"1", "2"}),
		table.MustAttribute("B", []string{"3", "4"}),
	}}, len(rows))
	for i, r := range rows {
		for j, v := range r {
			if v < 0 {
				g.Records[i][j] = s.Hiers[j].Root()
			} else {
				g.Records[i][j] = s.Hiers[j].LeafOf(v)
			}
		}
	}
	return g
}

// is1K and isK1 are the (1,k) and (k,1) verdicts read off the degrees of
// V_{D,g(D)}.
func is1K(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	left, _ := ConsistencyDegrees(s, tbl, g)
	return allAtLeast(left, k)
}

func isK1(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	_, right := ConsistencyDegrees(s, tbl, g)
	return allAtLeast(right, k)
}

func TestProp45TwoAnon(t *testing.T) {
	s, tbl := prop45(t)
	// {1,2},{3,4} three times.
	g := prop45Gen(s, [][2]int{{-1, -1}, {-1, -1}, {-1, -1}})
	if !IsGeneralizationOf(s, tbl, g) {
		t.Fatal("not a generalization")
	}
	if !IsKAnonymous(g, 2) {
		t.Error("2-anon example should be 2-anonymous")
	}
	if !IsKK(s, tbl, g, 2) || !is1K(s, tbl, g, 2) || !isK1(s, tbl, g, 2) {
		t.Error("2-anonymity must imply all relaxations")
	}
	if !IsGlobal1K(s, tbl, g, 2) {
		t.Error("2-anonymity must imply global (1,2)")
	}
}

func TestProp45OneTwoAnon(t *testing.T) {
	s, tbl := prop45(t)
	// 1,3 | {1,2},{3,4} | {1,2},4 — in A^(1,2) but not A^(2,1).
	g := prop45Gen(s, [][2]int{{0, 0}, {-1, -1}, {-1, 1}})
	if !IsGeneralizationOf(s, tbl, g) {
		t.Fatal("not a generalization")
	}
	if !is1K(s, tbl, g, 2) {
		t.Error("example should be (1,2)-anonymous")
	}
	if isK1(s, tbl, g, 2) {
		t.Error("example should NOT be (2,1)-anonymous")
	}
	if IsKK(s, tbl, g, 2) {
		t.Error("(k,k) requires both sides")
	}
}

func TestProp45TwoOneAnon(t *testing.T) {
	s, tbl := prop45(t)
	// 1,{3,4} | {1,2},4 | {1,2},4 — in A^(2,1) but not A^(1,2).
	g := prop45Gen(s, [][2]int{{0, -1}, {-1, 1}, {-1, 1}})
	if !IsGeneralizationOf(s, tbl, g) {
		t.Fatal("not a generalization")
	}
	if !isK1(s, tbl, g, 2) {
		t.Error("example should be (2,1)-anonymous")
	}
	if is1K(s, tbl, g, 2) {
		t.Error("example should NOT be (1,2)-anonymous")
	}
}

func TestProp45TwoTwoAnon(t *testing.T) {
	s, tbl := prop45(t)
	// 1,{3,4} | {1,2},{3,4} | {1,2},4 — in A^(2,2) but not A^2.
	g := prop45Gen(s, [][2]int{{0, -1}, {-1, -1}, {-1, 1}})
	if !IsGeneralizationOf(s, tbl, g) {
		t.Fatal("not a generalization")
	}
	if !IsKK(s, tbl, g, 2) {
		t.Error("example should be (2,2)-anonymous")
	}
	if IsKAnonymous(g, 2) {
		t.Error("example should NOT be 2-anonymous")
	}
}

// TestOneKAttack encodes the Section IV-A attack on (1,k)-anonymity: keep
// n−k records untouched and fully suppress the last k. The result is
// (1,k)-anonymous with tiny loss, yet most individuals are fully exposed —
// witnessed by (k,1)-anonymity failing.
func TestOneKAttack(t *testing.T) {
	schema := table.MustSchema(table.MustAttribute("A", []string{"a", "b", "c", "d", "e", "f"}))
	tbl := table.New(schema)
	for v := 0; v < 6; v++ {
		tbl.MustAppend(table.Record{v})
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(6)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	const k = 2
	g := table.NewGen(schema, 6)
	for i := 0; i < 4; i++ {
		g.Records[i][0] = hiers[0].LeafOf(i) // identity
	}
	for i := 4; i < 6; i++ {
		g.Records[i][0] = hiers[0].Root() // suppressed
	}
	if !is1K(s, tbl, g, k) {
		t.Fatal("attack table should be (1,k)-anonymous")
	}
	if isK1(s, tbl, g, k) {
		t.Error("attack table must fail (k,1): identity records are unique")
	}
	if IsKAnonymous(g, k) {
		t.Error("attack table must fail k-anonymity")
	}
}

// randomPositionalGen widens each record's entries by random hierarchy
// walk-ups, producing a valid positional generalization.
func randomPositionalGen(rng *rand.Rand, s *cluster.Space, tbl *table.Table) *table.GenTable {
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i, r := range tbl.Records {
		for j, v := range r {
			node := s.Hiers[j].LeafOf(v)
			for steps := rng.Intn(3); steps > 0 && node != s.Hiers[j].Root(); steps-- {
				node = s.Hiers[j].Parent(node)
			}
			g.Records[i][j] = node
		}
	}
	return g
}

func randomTableSpace(t *testing.T, rng *rand.Rand, n int) (*cluster.Space, *table.Table) {
	t.Helper()
	schema := table.MustSchema(
		table.MustAttribute("a", []string{"0", "1", "2", "3"}),
		table.MustAttribute("b", []string{"x", "y"}),
	)
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		tbl.MustAppend(table.Record{rng.Intn(4), rng.Intn(2)})
	}
	ha, err := hierarchy.FromSubsets(4, []hierarchy.Subset{{Values: []int{0, 1}}, {Values: []int{2, 3}}}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hiers := []*hierarchy.Hierarchy{ha, hierarchy.Flat(2)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// TestInclusionLawsRandom checks the Figure 1 inclusion diagram on random
// positional generalizations:
//
//	k-anonymous ⇒ (k,k) ⇒ (1,k) and (k,1);
//	k-anonymous ⇒ global (1,k) ⇒ (1,k).
func TestInclusionLawsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 60; trial++ {
		s, tbl := randomTableSpace(t, rng, 4+rng.Intn(8))
		g := randomPositionalGen(rng, s, tbl)
		for _, k := range []int{2, 3} {
			kAnon := IsKAnonymous(g, k)
			oneK := is1K(s, tbl, g, k)
			kOne := isK1(s, tbl, g, k)
			kk := IsKK(s, tbl, g, k)
			global := IsGlobal1K(s, tbl, g, k)
			if kAnon && !kk {
				t.Fatalf("trial %d k=%d: k-anonymous but not (k,k)", trial, k)
			}
			if kAnon && !global {
				t.Fatalf("trial %d k=%d: k-anonymous but not global (1,k)", trial, k)
			}
			if kk != (oneK && kOne) {
				t.Fatalf("trial %d k=%d: (k,k) inconsistent with its parts", trial, k)
			}
			if global && !oneK {
				t.Fatalf("trial %d k=%d: global (1,k) but not (1,k)", trial, k)
			}
		}
	}
}

// TestKKNotGlobalExists searches random generalizations for a witness that
// (k,k)-anonymity does not imply global (1,k)-anonymity — the separation
// motivating Algorithm 6. The search is deterministic and known to find
// witnesses under this seed.
func TestKKNotGlobalExists(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	found := false
	for trial := 0; trial < 400 && !found; trial++ {
		s, tbl := randomTableSpace(t, rng, 4+rng.Intn(6))
		g := randomPositionalGen(rng, s, tbl)
		if IsKK(s, tbl, g, 2) && !IsGlobal1K(s, tbl, g, 2) && !IsKAnonymous(g, 2) {
			found = true
		}
	}
	if !found {
		t.Error("no (k,k)-but-not-global witness found; separation untested")
	}
}

func TestMatchCountsIdentityGeneralization(t *testing.T) {
	// Fully distinct identity generalization: each record matches exactly
	// itself.
	rng := rand.New(rand.NewSource(101))
	s, tbl := randomTableSpace(t, rng, 5)
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i, r := range tbl.Records {
		copy(g.Records[i], s.LeafClosure(r))
	}
	counts := MatchCounts(s, tbl, g)
	for i, c := range counts {
		// Duplicated records can match each other's rows; count ≥ 1 always.
		if c < 1 {
			t.Errorf("record %d has %d matches, want ≥ 1", i, c)
		}
	}
}

func TestMatchCountsNoPerfectMatching(t *testing.T) {
	// A non-positional generalized table that no original record fits:
	// the graph has no perfect matching, so all counts are 0.
	s, tbl := randomTableSpace(t, rng101(), 3)
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i := range g.Records {
		// All-leaf rows equal to record 0's values: likely inconsistent
		// with others; force emptiness by pointing every row at record 0.
		copy(g.Records[i], s.LeafClosure(tbl.Records[0]))
	}
	counts := MatchCounts(s, tbl, g)
	// Either there is a perfect matching (all records identical) or all
	// counts are zero.
	allZero := true
	for _, c := range counts {
		if c != 0 {
			allZero = false
		}
	}
	allSame := true
	for _, r := range tbl.Records {
		if !slices.Equal(r, tbl.Records[0]) {
			allSame = false
		}
	}
	if !allZero && !allSame {
		t.Error("expected zero match counts without a perfect matching")
	}
}

func rng101() *rand.Rand { return rand.New(rand.NewSource(103)) }

func TestIsGeneralizationOfLengthMismatch(t *testing.T) {
	s, tbl := randomTableSpace(t, rng101(), 3)
	g := table.NewGen(tbl.Schema, 2)
	if IsGeneralizationOf(s, tbl, g) {
		t.Error("length mismatch should fail")
	}
}

func TestLDiversity(t *testing.T) {
	s, tbl := randomTableSpace(t, rng101(), 4)
	_ = s
	g := table.NewGen(tbl.Schema, 4)
	// Two groups of two.
	g.Records[0][0], g.Records[0][1] = 0, 0
	g.Records[1][0], g.Records[1][1] = 0, 0
	g.Records[2][0], g.Records[2][1] = 1, 1
	g.Records[3][0], g.Records[3][1] = 1, 1
	sens := []int{0, 1, 2, 2}
	ok, err := IsDistinctLDiverse(g, sens, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("group {2,2} has one distinct value; 2-diversity must fail")
	}
	ok, err = IsDistinctLDiverse(g, []int{0, 1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("all-distinct labels should be 2-diverse")
	}
	if _, err := IsDistinctLDiverse(g, []int{0}, 2); err == nil {
		t.Error("expected length mismatch error")
	}
}

// TestAuditClasses audits two classes, one of them homogeneous, against
// distinct 2-diversity, and a trivial constraint without binding it.
func TestAuditClasses(t *testing.T) {
	_, tbl := randomTableSpace(t, rng101(), 4)
	g := table.NewGen(tbl.Schema, 4)
	g.Records[2][0], g.Records[2][1] = 1, 1
	g.Records[3][0], g.Records[3][1] = 1, 1
	sens := []int{0, 1, 2, 2}
	a, err := AuditClasses(g, cluster.DistinctLDiversity(2), sens)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ConstraintStatus{Constraint: "distinct(l=2)", Classes: 2, Violations: 1, MinMetric: 1, MaxMetric: 2}); a != want {
		t.Errorf("AuditClasses = %+v, want %+v", a, want)
	}
	a, err = AuditClasses(g, cluster.DistinctLDiversity(1), nil)
	if err != nil || a != (ConstraintStatus{Constraint: "distinct(l=1)", Satisfied: true, Classes: 2}) {
		t.Errorf("trivial AuditClasses = %+v, %v; want 2 classes and no violation", a, err)
	}
	if _, err := AuditClasses(g, cluster.DistinctLDiversity(2), []int{0}); err == nil {
		t.Error("expected a sensitive-length error")
	}
}

// TestCandidateDiversity counts distinct sensitive values over each
// record's consistent rows on the Proposition 4.5 example, and checks the
// argument errors.
func TestCandidateDiversity(t *testing.T) {
	s, tbl := prop45(t)
	// Row 0 keeps (1,3) and only record 0 is consistent with it; rows 1
	// and 2 are suppressed and consistent with every record.
	g := prop45Gen(s, [][2]int{{0, 0}, {-1, -1}, {-1, -1}})
	got, err := CandidateDiversity(s, tbl, g, []int{4, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 1, 1}; !slices.Equal(got, want) {
		t.Errorf("CandidateDiversity = %v, want %v", got, want)
	}
	if m, err := MinCandidateDiversity(s, tbl, g, []int{4, 0, 1}); err != nil || m != 2 {
		t.Errorf("MinCandidateDiversity = %d, %v; want 2", m, err)
	}
	if _, err := CandidateDiversity(s, tbl, g, []int{1}); err == nil {
		t.Error("expected a sensitive-length error")
	}
	if _, err := CandidateDiversity(s, tbl, g, []int{0, -1, 0}); err == nil {
		t.Error("expected a negative-value error")
	}
	if _, err := CandidateDiversity(s, tbl, prop45Gen(s, [][2]int{{-1, -1}}), []int{0, 0, 0}); err == nil {
		t.Error("expected a release-length error")
	}
}

func TestCheckReport(t *testing.T) {
	s, tbl := prop45(t)
	g := prop45Gen(s, [][2]int{{-1, -1}, {-1, -1}, {-1, -1}})
	rep := Check(s, tbl, g, 2)
	if !rep.Generalization || !rep.KAnonymous || !rep.OneK || !rep.KOne || !rep.KK || !rep.Global1K {
		t.Errorf("full suppression should satisfy everything: %+v", rep)
	}
	if rep.MinMatches < 2 {
		t.Errorf("MinMatches = %d, want ≥ 2", rep.MinMatches)
	}
	str := rep.String()
	for _, want := range []string{"k=2", "k-anonymous=yes", "global(1,k)=yes"} {
		if !strings.Contains(str, want) {
			t.Errorf("report %q missing %q", str, want)
		}
	}
}

func TestIsKAnonymousEmpty(t *testing.T) {
	g := table.NewGen(table.MustSchema(table.MustAttribute("a", []string{"x"})), 0)
	if !IsKAnonymous(g, 5) {
		t.Error("empty table is vacuously k-anonymous")
	}
}

// TestCheckAgreesWithVerifiers compares every Report field with its
// standalone verifier at n=0 and n=1, where the notions hold or fail
// vacuously: an empty release satisfies them all.
func TestCheckAgreesWithVerifiers(t *testing.T) {
	s, full := prop45(t)
	for _, n := range []int{0, 1} {
		tbl := table.New(full.Schema)
		for _, r := range full.Records[:n] {
			tbl.MustAppend(r)
		}
		for _, suppress := range []bool{false, true} {
			rows := make([][2]int, n)
			for i := range rows {
				rows[i] = [2]int{tbl.Records[i][0], tbl.Records[i][1]}
				if suppress {
					rows[i] = [2]int{-1, -1}
				}
			}
			g := prop45Gen(s, rows)
			for _, k := range []int{1, 2} {
				rep := Check(s, tbl, g, k)
				minMatches := 0
				if counts := MatchCounts(s, tbl, g); len(counts) > 0 {
					minMatches = slices.Min(counts)
				}
				want := Report{
					K:              k,
					Generalization: IsGeneralizationOf(s, tbl, g),
					KAnonymous:     IsKAnonymous(g, k),
					OneK:           is1K(s, tbl, g, k),
					KOne:           isK1(s, tbl, g, k),
					KK:             IsKK(s, tbl, g, k),
					Global1K:       IsGlobal1K(s, tbl, g, k),
					MinMatches:     minMatches,
				}
				if rep != want {
					t.Errorf("n=%d suppress=%v k=%d: Check = %+v, verifiers say %+v", n, suppress, k, rep, want)
				}
				if n == 0 && !(rep.KAnonymous && rep.KK && rep.Global1K) {
					t.Errorf("k=%d: empty release should satisfy every notion: %+v", k, rep)
				}
			}
		}
	}
}

// TestConsistentRows compares the expanded adjacency lists of the
// non-positional matching with one Consistent call per pair, in ascending
// row order, on positional and shuffled releases, with row classes plain
// and refined by a sensitive column.
func TestConsistentRows(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 40; trial++ {
		s, tbl := randomTableSpace(t, rng, 1+rng.Intn(90))
		g := randomPositionalGen(rng, s, tbl)
		if trial%2 == 1 {
			rows := rng.Perm(g.Len())
			h := table.NewGen(g.Schema, g.Len())
			for j, p := range rows {
				copy(h.Records[j], g.Records[p])
			}
			g = h
		}
		sensitive := make([]int, g.Len())
		for j := range sensitive {
			sensitive[j] = rng.Intn(3)
		}
		for _, extra := range [][]int{nil, sensitive} {
			x := newRowClasses(s.Hiers, g, extra)
			distinct := make(map[string]bool)
			for j, row := range g.Records {
				key := fmt.Sprint(row)
				if extra != nil {
					key += fmt.Sprint(extra[j])
				}
				distinct[key] = true
			}
			if len(x.rows) != len(distinct) {
				t.Fatalf("trial %d refined=%v: %d classes, want %d", trial, extra != nil, len(x.rows), len(distinct))
			}
			masks := x.masks(false)
			got := x.consistentRows(tbl.Len(), func(m []uint64, i int) { x.neighbours(m, masks, tbl.Records[i]) })
			for i, r := range tbl.Records {
				var want []int
				for j, row := range g.Records {
					if s.Consistent(r, row) {
						want = append(want, j)
					}
				}
				if !slices.Equal(got[i], want) {
					t.Fatalf("trial %d refined=%v record %d: rows %v, pairwise %v", trial, extra != nil, i, got[i], want)
				}
			}
		}
	}
}
