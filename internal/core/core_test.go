package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// testSpace builds a 3-attribute random table with interval/subset
// hierarchies and the requested measure ("lm" or "entropy").
func testSpace(t testing.TB, rng *rand.Rand, n int, measure string) (*cluster.Space, *table.Table) {
	t.Helper()
	schema := table.MustSchema(
		table.MustAttribute("a", []string{"0", "1", "2", "3", "4", "5", "6", "7"}),
		table.MustAttribute("b", []string{"x", "y", "z", "w"}),
		table.MustAttribute("c", []string{"p", "q"}),
	)
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		tbl.MustAppend(table.Record{rng.Intn(8), rng.Intn(4), rng.Intn(2)})
	}
	ha, err := hierarchy.Intervals(8, []int{2, 4}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hierarchy.FromSubsets(4, []hierarchy.Subset{{Values: []int{0, 1}}, {Values: []int{2, 3}}}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hiers := []*hierarchy.Hierarchy{ha, hb, hierarchy.Flat(2)}
	var m loss.Measure
	switch measure {
	case "entropy":
		em, err := loss.NewEntropy(tbl, hiers)
		if err != nil {
			t.Fatal(err)
		}
		m = em
	default:
		m = loss.NewLM(hiers)
	}
	s, err := cluster.NewSpace(hiers, m)
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func TestKAnonymizePostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, measure := range []string{"lm", "entropy"} {
		for _, dist := range cluster.PaperDistances() {
			for _, modified := range []bool{false, true} {
				s, tbl := testSpace(t, rng, 50, measure)
				const k = 4
				g, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: k, Distance: dist, Modified: modified})
				if err != nil {
					t.Fatal(err)
				}
				if !anonymity.IsKAnonymous(g, k) {
					t.Errorf("%s/%s/mod=%v: output not %d-anonymous", measure, dist.Name(), modified, k)
				}
				if !anonymity.IsGeneralizationOf(s, tbl, g) {
					t.Errorf("%s/%s: output not a positional generalization", measure, dist.Name())
				}
				if g.Len() != tbl.Len() {
					t.Errorf("release covers %d of %d records", g.Len(), tbl.Len())
				}
			}
		}
	}
}

func TestKAnonymizeDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, tbl := testSpace(t, rng, 20, "lm")
	g, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: 3}) // nil Distance -> D3
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKAnonymous(g, 3) {
		t.Error("default distance run not 3-anonymous")
	}
	if _, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: 0}); err == nil {
		t.Error("expected error for k < 1")
	}
}

func TestForestPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{2, 4, 7} {
		s, tbl := testSpace(t, rng, 45, "entropy")
		g, clusters, err := ForestCtx(nil, s, tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.IsKAnonymous(g, k) {
			t.Errorf("forest k=%d: not k-anonymous", k)
		}
		if !anonymity.IsGeneralizationOf(s, tbl, g) {
			t.Errorf("forest k=%d: not positional", k)
		}
		for ci, c := range clusters {
			if c.Size() < k {
				t.Errorf("forest k=%d: cluster %d size %d", k, ci, c.Size())
			}
		}
	}
}

func TestForestClusterSizeBound(t *testing.T) {
	// Phase 2 should keep parts below ~3k.
	rng := rand.New(rand.NewSource(4))
	s, tbl := testSpace(t, rng, 60, "lm")
	const k = 3
	_, clusters, err := ForestCtx(nil, s, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range clusters {
		if c.Size() >= 3*k {
			t.Errorf("cluster %d has size %d ≥ 3k=%d", ci, c.Size(), 3*k)
		}
	}
}

func TestForestEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, tbl := testSpace(t, rng, 5, "lm")
	if _, _, err := ForestCtx(nil, s, tbl, 6); err == nil {
		t.Error("expected k > n error")
	}
	if _, _, err := ForestCtx(nil, s, tbl, 0); err == nil {
		t.Error("expected k < 1 error")
	}
	g, _, err := ForestCtx(nil, s, tbl, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKAnonymous(g, 5) {
		t.Error("k=n forest not k-anonymous")
	}
	empty := table.New(tbl.Schema)
	// k=0 invalid; k=1 on empty table still must not crash: k > n is the
	// guard that fires (1 > 0).
	if _, _, err := ForestCtx(nil, s, empty, 1); err == nil {
		t.Error("expected k > n error on empty table")
	}
}

func TestK1NearestPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, tbl := testSpace(t, rng, 30, "entropy")
	for _, k := range []int{2, 5} {
		g, err := K1NearestCtx(nil, s, tbl, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.Check(s, tbl, g, k).KOne {
			t.Errorf("K1Nearest k=%d: not (k,1)-anonymous", k)
		}
		if !anonymity.IsGeneralizationOf(s, tbl, g) {
			t.Errorf("K1Nearest k=%d: not positional", k)
		}
	}
}

// TestK1ScansAllocatePerSpan checks that Algorithms 3 and 4 allocate
// nothing per record: their scratch lives per worker span and the output's
// generalized records share one backing array (table.NewGen), so one more
// record costs no more allocations.
func TestK1ScansAllocatePerSpan(t *testing.T) {
	algs := map[string]func(*cluster.Space, *table.Table) error{
		"alg3": func(s *cluster.Space, tbl *table.Table) error {
			_, err := K1NearestCtx(nil, s, tbl, 5, 1)
			return err
		},
		"alg4": func(s *cluster.Space, tbl *table.Table) error {
			_, err := K1ExpandCtx(nil, s, tbl, 5, 1)
			return err
		},
	}
	for name, run := range algs {
		var allocs [2]float64
		for x, n := range []int{100, 200} {
			s, tbl := testSpace(t, rand.New(rand.NewSource(10)), n, "lm")
			allocs[x] = testing.AllocsPerRun(5, func() {
				if err := run(s, tbl); err != nil {
					t.Fatal(err)
				}
			})
		}
		if extra := allocs[1] - allocs[0]; extra != 0 {
			t.Errorf("%s: %v allocations at n=100, %v at n=200: %v for 100 more records, want 0", name, allocs[0], allocs[1], extra)
		}
	}
}

func TestK1ExpandPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, tbl := testSpace(t, rng, 30, "entropy")
	for _, k := range []int{2, 5} {
		g, err := K1ExpandCtx(nil, s, tbl, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.Check(s, tbl, g, k).KOne {
			t.Errorf("K1Expand k=%d: not (k,1)-anonymous", k)
		}
		if !anonymity.IsGeneralizationOf(s, tbl, g) {
			t.Errorf("K1Expand k=%d: not positional", k)
		}
	}
}

func TestK1ArgChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, tbl := testSpace(t, rng, 4, "lm")
	if _, err := K1NearestCtx(nil, s, tbl, 5, 0); err == nil {
		t.Error("expected k > n error")
	}
	if _, err := K1ExpandCtx(nil, s, tbl, 0, 0); err == nil {
		t.Error("expected k < 1 error")
	}
}

func TestK1OneIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, tbl := testSpace(t, rng, 10, "lm")
	g, err := K1ExpandCtx(nil, s, tbl, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range tbl.Records {
		if !slices.Equal(g.Records[i], s.LeafClosure(r)) {
			t.Errorf("record %d: (1,1) should be identity", i)
		}
	}
}

// TestProp51Approximation: Algorithm 3 approximates the optimal (k,1)
// within k−1 under the clustering loss; we check the per-table loss ratio.
func TestProp51Approximation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 10; trial++ {
		s, tbl := testSpace(t, rng, 9, "lm")
		const k = 3
		gOpt, err := OptimalK1(s, tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		gNN, err := K1NearestCtx(nil, s, tbl, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt := loss.TableLoss(s.Measure, gOpt)
		nn := loss.TableLoss(s.Measure, gNN)
		if nn < opt-1e-12 {
			t.Errorf("trial %d: heuristic %v beats optimum %v", trial, nn, opt)
		}
		if opt > 0 && nn > float64(k-1)*opt+1e-9 {
			t.Errorf("trial %d: approximation ratio %v exceeds k-1=%d", trial, nn/opt, k-1)
		}
	}
}

func TestOptimalK1IsOptimalPerRecord(t *testing.T) {
	// Every record's generalization must cost no more than any other
	// (k-1)-subset's closure — spot-check against K1Expand.
	rng := rand.New(rand.NewSource(11))
	s, tbl := testSpace(t, rng, 8, "entropy")
	const k = 3
	gOpt, err := OptimalK1(s, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	gEx, err := K1ExpandCtx(nil, s, tbl, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tbl.Records {
		if s.Cost(gOpt.Records[i]) > s.Cost(gEx.Records[i])+1e-12 {
			t.Errorf("record %d: optimal cost %v exceeds heuristic %v",
				i, s.Cost(gOpt.Records[i]), s.Cost(gEx.Records[i]))
		}
	}
}

func TestMake1KPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s, tbl := testSpace(t, rng, 30, "entropy")
	const k = 4
	g, err := K1ExpandCtx(nil, s, tbl, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Make1KCtx(nil, s, tbl, g, k); err != nil {
		t.Fatal(err)
	}
	if !anonymity.Check(s, tbl, g, k).OneK {
		t.Error("Make1K output not (1,k)-anonymous")
	}
	if !anonymity.Check(s, tbl, g, k).KOne {
		t.Error("Make1K destroyed the (k,1) property")
	}
	if !anonymity.IsKK(s, tbl, g, k) {
		t.Error("coupling not (k,k)-anonymous")
	}
}

func TestMake1KOnIdentity(t *testing.T) {
	// Applying Algorithm 5 to the identity generalization must still yield
	// (1,k)-anonymity.
	rng := rand.New(rand.NewSource(13))
	s, tbl := testSpace(t, rng, 15, "lm")
	const k = 3
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i, r := range tbl.Records {
		copy(g.Records[i], s.LeafClosure(r))
	}
	if _, err := Make1KCtx(nil, s, tbl, g, k); err != nil {
		t.Fatal(err)
	}
	if !anonymity.Check(s, tbl, g, k).OneK {
		t.Error("Make1K on identity not (1,k)-anonymous")
	}
}

func TestMake1KErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s, tbl := testSpace(t, rng, 5, "lm")
	short := table.NewGen(tbl.Schema, 3)
	if _, err := Make1KCtx(nil, s, tbl, short, 2); err == nil {
		t.Error("expected length mismatch error")
	}
	g := table.NewGen(tbl.Schema, 5)
	if _, err := Make1KCtx(nil, s, tbl, g, 6); err == nil {
		t.Error("expected k > n error")
	}
}

func TestKKAnonymizeBothCouplings(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, alg := range []K1Algorithm{K1ByNearest, K1ByExpansion} {
		s, tbl := testSpace(t, rng, 35, "entropy")
		const k = 4
		g, err := KKAnonymizeCtx(nil, s, tbl, k, alg, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.IsKK(s, tbl, g, k) {
			t.Errorf("%v coupling: not (k,k)-anonymous", alg)
		}
	}
	s, tbl := testSpace(t, rng, 10, "lm")
	if _, err := KKAnonymizeCtx(nil, s, tbl, 2, K1Algorithm(99), nil, nil, 0); err == nil {
		t.Error("expected unknown-algorithm error")
	}
}

func TestK1AlgorithmString(t *testing.T) {
	if K1ByExpansion.String() != "expansion" || K1ByNearest.String() != "nearest" {
		t.Error("K1Algorithm names wrong")
	}
	if K1Algorithm(99).String() == "" {
		t.Error("unknown algorithm should still render")
	}
}

func TestMakeGlobal1KPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 5; trial++ {
		s, tbl := testSpace(t, rng, 40, "entropy")
		const k = 4
		g, err := KKAnonymizeCtx(nil, s, tbl, k, K1ByExpansion, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := loss.TableLoss(s.Measure, g)
		out, stats, err := MakeGlobal1KCtx(nil, s, tbl, g, k)
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.IsGlobal1K(s, tbl, out, k) {
			t.Fatalf("trial %d: output not global (1,k)-anonymous", trial)
		}
		if !anonymity.IsKK(s, tbl, out, k) {
			t.Fatalf("trial %d: global upgrade destroyed (k,k)", trial)
		}
		after := loss.TableLoss(s.Measure, out)
		if after < before-1e-12 {
			t.Fatalf("trial %d: loss decreased during widening (%v -> %v)", trial, before, after)
		}
		if stats.DeficientRecords == 0 && stats.GeneralizationSteps != 0 {
			t.Fatalf("trial %d: steps without deficiencies", trial)
		}
	}
}

func TestMakeGlobal1KOnKAnonymous(t *testing.T) {
	// A k-anonymous input is already global (1,k): zero work.
	rng := rand.New(rand.NewSource(17))
	s, tbl := testSpace(t, rng, 30, "lm")
	const k = 3
	g, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := MakeGlobal1KCtx(nil, s, tbl, g, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DeficientRecords != 0 || stats.GeneralizationSteps != 0 {
		t.Errorf("k-anonymous input should need no upgrade work: %+v", stats)
	}
	if stats.InitialMinMatches < k {
		t.Errorf("InitialMinMatches = %d, want ≥ %d", stats.InitialMinMatches, k)
	}
}

func TestMakeGlobal1KRejectsNonPositional(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	s, tbl := testSpace(t, rng, 6, "lm")
	g := table.NewGen(tbl.Schema, tbl.Len())
	// Point every generalized record at record 0's values; records whose
	// values differ make the table non-positional.
	for i := range g.Records {
		copy(g.Records[i], s.LeafClosure(tbl.Records[0]))
	}
	nonPositional := false
	for i, r := range tbl.Records {
		if !s.Consistent(r, g.Records[i]) {
			nonPositional = true
		}
	}
	if !nonPositional {
		t.Skip("random table degenerate (all records equal)")
	}
	if _, _, err := MakeGlobal1KCtx(nil, s, tbl, g, 2); err == nil {
		t.Error("expected positionality rejection")
	}
}

func TestMakeGlobal1KErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s, tbl := testSpace(t, rng, 5, "lm")
	short := table.NewGen(tbl.Schema, 2)
	if _, _, err := MakeGlobal1KCtx(nil, s, tbl, short, 2); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestGlobal1KPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s, tbl := testSpace(t, rng, 35, "entropy")
	const k = 3
	gkk, err := KKAnonymizeCtx(nil, s, tbl, k, K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, stats, err := MakeGlobal1KCtx(nil, s, tbl, gkk, k)
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsGlobal1K(s, tbl, g, k) {
		t.Error("pipeline output not global (1,k)")
	}
	if stats.InitialMinMatches > tbl.Len() {
		t.Error("nonsensical stats")
	}
}

func TestOptimalKAnonymize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s, tbl := testSpace(t, rng, 7, "lm")
	const k = 2
	g, avg, err := OptimalKAnonymize(s, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKAnonymous(g, k) {
		t.Error("optimal output not k-anonymous")
	}
	// No heuristic may beat the optimum.
	for _, dist := range cluster.PaperDistances() {
		gh, err := KAnonymizeCtx(nil, s, tbl, cluster.AggloOptions{K: k, Distance: dist})
		if err != nil {
			t.Fatal(err)
		}
		if got := loss.TableLoss(s.Measure, gh); got < avg-1e-12 {
			t.Errorf("%s heuristic loss %v beats optimal %v", dist.Name(), got, avg)
		}
	}
	gf, _, err := ForestCtx(nil, s, tbl, k)
	if err != nil {
		t.Fatal(err)
	}
	if got := loss.TableLoss(s.Measure, gf); got < avg-1e-12 {
		t.Errorf("forest loss %v beats optimal %v", got, avg)
	}
}

func TestOptimalKAnonymizeGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s, tbl := testSpace(t, rng, 20, "lm")
	if _, _, err := OptimalKAnonymize(s, tbl, 2); err == nil {
		t.Error("expected size guard for n > 14")
	}
	s2, tbl2 := testSpace(t, rng, 3, "lm")
	if _, _, err := OptimalKAnonymize(s2, tbl2, 4); err == nil {
		t.Error("expected k > n error")
	}
}

func TestPairCostSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s, tbl := testSpace(t, rng, 10, "entropy")
	ri, rj := newCostRows(s), newCostRows(s)
	for i := 0; i < tbl.Len(); i++ {
		ri.load(tbl.Records[i])
		for j := 0; j < tbl.Len(); j++ {
			rj.load(tbl.Records[j])
			if math.Abs(ri.pairCost(tbl.Records[j])-rj.pairCost(tbl.Records[i])) > 1e-12 {
				t.Fatalf("pairCost asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestK1WorkersEquivalence: Algorithms 3 and 4 must return the identical
// generalized table at any worker count.
func TestK1WorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s, tbl := testSpace(t, rng, 60, "entropy")
	const k = 5
	for _, tc := range []struct {
		name string
		run  func(workers int) (*table.GenTable, error)
	}{
		{"nearest", func(w int) (*table.GenTable, error) { return K1NearestCtx(nil, s, tbl, k, w) }},
		{"expand", func(w int) (*table.GenTable, error) { return K1ExpandCtx(nil, s, tbl, k, w) }},
	} {
		seq, err := tc.run(1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", tc.name, err)
		}
		for _, w := range []int{2, 4, 8} {
			got, err := tc.run(w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			for i := range seq.Records {
				for a := range seq.Records[i] {
					if seq.Records[i][a] != got.Records[i][a] {
						t.Fatalf("%s workers=%d: record %d attr %d differs", tc.name, w, i, a)
					}
				}
			}
		}
	}
}

// TestMake1KIdempotent: once (1,k) holds, re-running Algorithm 5 must be a
// no-op (the loop only acts on deficient records).
func TestMake1KIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s, tbl := testSpace(t, rng, 30, "entropy")
	const k = 4
	g, err := KKAnonymizeCtx(nil, s, tbl, k, K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Clone()
	if _, err := Make1KCtx(nil, s, tbl, g, k); err != nil {
		t.Fatal(err)
	}
	for i := range g.Records {
		if !slices.Equal(g.Records[i], before.Records[i]) {
			t.Fatalf("Make1K modified record %d of an already-(1,k) table", i)
		}
	}
}

// TestMakeGlobal1KIdempotent: a global (1,k) table needs no further
// widening.
func TestMakeGlobal1KIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s, tbl := testSpace(t, rng, 30, "entropy")
	const k = 3
	gkk, err := KKAnonymizeCtx(nil, s, tbl, k, K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := MakeGlobal1KCtx(nil, s, tbl, gkk, k)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Clone()
	_, stats, err := MakeGlobal1KCtx(nil, s, tbl, g, k)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GeneralizationSteps != 0 || stats.DeficientRecords != 0 {
		t.Errorf("re-run did work: %+v", stats)
	}
	for i := range g.Records {
		if !slices.Equal(g.Records[i], before.Records[i]) {
			t.Fatalf("MakeGlobal1K modified record %d of a global table", i)
		}
	}
}

func TestK1Determinism(t *testing.T) {
	// Parallel execution must not affect results.
	rng1 := rand.New(rand.NewSource(24))
	s1, tbl1 := testSpace(t, rng1, 40, "entropy")
	rng2 := rand.New(rand.NewSource(24))
	s2, tbl2 := testSpace(t, rng2, 40, "entropy")
	for trial := 0; trial < 3; trial++ {
		a, err := K1ExpandCtx(nil, s1, tbl1, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := K1ExpandCtx(nil, s2, tbl2, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Records {
			if !slices.Equal(a.Records[i], b.Records[i]) {
				t.Fatalf("K1Expand non-deterministic at record %d", i)
			}
		}
	}
}
