package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// The core scans read their pair and widening costs from the fused
// LCA-cost rows (costRows over cluster.Space.LCACostRow). These tests hold
// every scan byte-identical to the LCA-walk oracle of ref_test.go: the same
// generalized tables and the same core.* counters, at every worker count.

// measureSpace builds the space of tbl under the named measure.
func measureSpace(t testing.TB, tbl *table.Table, hiers []*hierarchy.Hierarchy, measure string) *cluster.Space {
	t.Helper()
	m := loss.Measure(loss.NewLM(hiers))
	if measure == "entropy" {
		em, err := loss.NewEntropy(tbl, hiers)
		if err != nil {
			t.Fatal(err)
		}
		m = em
	}
	s, err := cluster.NewSpace(hiers, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// overBudgetCoreSpace builds a space whose first attribute has more nodes
// than hierarchy.LCATableBudget admits, so its cost rows come from the
// walk-up fill, next to a small tabled attribute.
func overBudgetCoreSpace(t testing.TB, rng *rand.Rand, n int, measure string) (*cluster.Space, *table.Table) {
	t.Helper()
	const wide = 2080 // 2080 leaves + 1040 intervals + root = 3121 nodes; 3121² > 1<<22
	hw, err := hierarchy.Intervals(wide, []int{2}, "*")
	if err != nil {
		t.Fatal(err)
	}
	if hw.NumNodes()*hw.NumNodes() <= hierarchy.LCATableBudget {
		t.Fatalf("test hierarchy not over budget: %d nodes", hw.NumNodes())
	}
	names := make([]string, wide)
	for i := range names {
		names[i] = fmt.Sprint(i)
	}
	schema := table.MustSchema(
		table.MustAttribute("wide", names),
		table.MustAttribute("b", []string{"x", "y", "z", "w"}),
	)
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		// A narrow band of the wide domain keeps pairs at varied depths.
		tbl.MustAppend(table.Record{rng.Intn(64), rng.Intn(4)})
	}
	hb, err := hierarchy.FromSubsets(4, []hierarchy.Subset{{Values: []int{0, 1}}, {Values: []int{2, 3}}}, "*")
	if err != nil {
		t.Fatal(err)
	}
	return measureSpace(t, tbl, []*hierarchy.Hierarchy{hw, hb}, measure), tbl
}

// dipMeasure is a measure whose cost falls along a root path: every
// two-value node of attribute 0 costs 0.2 more than its parent, so
// widening a closure past it makes the closure cheaper. A raw LCA cost is
// then no lower bound on later growth steps of Algorithm 4, and only the
// root-path envelope (cluster.Space.LCABoundRow) keeps its scan exact.
type dipMeasure struct {
	loss.Measure
	h *hierarchy.Hierarchy
}

func (m dipMeasure) Cost(j, node int) float64 {
	if j == 0 && m.h.Size(node) == 2 {
		return m.Measure.Cost(0, m.h.Parent(node)) + 0.2
	}
	return m.Measure.Cost(j, node)
}

// dipSpace builds a sparse 3-attribute table (256 value combinations, so
// few duplicates and many closures that widen) under dipMeasure over the
// named base measure.
func dipSpace(t testing.TB, rng *rand.Rand, n int, measure string) (*cluster.Space, *table.Table) {
	t.Helper()
	names := func(m int) []string {
		out := make([]string, m)
		for i := range out {
			out[i] = fmt.Sprint(i)
		}
		return out
	}
	schema := table.MustSchema(
		table.MustAttribute("a", names(8)),
		table.MustAttribute("b", names(16)),
		table.MustAttribute("c", names(2)),
	)
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		tbl.MustAppend(table.Record{rng.Intn(8), rng.Intn(16), rng.Intn(2)})
	}
	ha, err := hierarchy.Intervals(8, []int{2, 4}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hierarchy.Intervals(16, []int{4, 8}, "*")
	if err != nil {
		t.Fatal(err)
	}
	base := measureSpace(t, tbl, []*hierarchy.Hierarchy{ha, hb, hierarchy.Flat(2)}, measure)
	s, err := cluster.NewSpace(base.Hiers, dipMeasure{base.Measure, ha})
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// distinctSpace builds a table whose first attribute is a distinct id per
// record (in shuffled order), so Algorithm 4's trie has depth 0: no prefix
// is shared, and every record is finished by a flat row sum.
func distinctSpace(t testing.TB, rng *rand.Rand, n int, measure string) (*cluster.Space, *table.Table) {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprint(i)
	}
	schema := table.MustSchema(
		table.MustAttribute("id", ids),
		table.MustAttribute("b", []string{"x", "y", "z", "w"}),
		table.MustAttribute("c", []string{"p", "q", "r"}),
	)
	tbl := table.New(schema)
	for _, id := range rng.Perm(n) {
		tbl.MustAppend(table.Record{id, rng.Intn(4), rng.Intn(3)})
	}
	hid, err := hierarchy.Intervals(n, []int{4, 16}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hierarchy.FromSubsets(4, []hierarchy.Subset{{Values: []int{0, 1}}, {Values: []int{2, 3}}}, "*")
	if err != nil {
		t.Fatal(err)
	}
	return measureSpace(t, tbl, []*hierarchy.Hierarchy{hid, hb, hierarchy.Flat(3)}, measure), tbl
}

// equivInput builds one dataset of the matrix: "adt", "art", "test" (the
// 3-attribute testSpace), "dip" (dipSpace, under dipMeasure), "wide" (over
// the LCA-table budget), "distinct" (distinctSpace) or "dups" (testSpace
// with every record a copy of the first).
func equivInput(t *testing.T, dataset, measure string, n int, seed int64) (*cluster.Space, *table.Table) {
	t.Helper()
	switch dataset {
	case "dip":
		return dipSpace(t, rand.New(rand.NewSource(seed)), n, measure)
	case "distinct":
		return distinctSpace(t, rand.New(rand.NewSource(seed)), n, measure)
	case "dups":
		s, tbl := testSpace(t, rand.New(rand.NewSource(seed)), n, measure)
		for i := range tbl.Records {
			copy(tbl.Records[i], tbl.Records[0])
		}
		return measureSpace(t, tbl, s.Hiers, measure), tbl
	case "adt", "art":
		ds := datagen.Adult(n, seed)
		if dataset == "art" {
			ds = datagen.ART(n, seed)
		}
		return measureSpace(t, ds.Table, ds.Hiers, measure), ds.Table
	case "wide":
		return overBudgetCoreSpace(t, rand.New(rand.NewSource(seed)), n, measure)
	default:
		return testSpace(t, rand.New(rand.NewSource(seed)), n, measure)
	}
}

// observe runs fn under a fresh metrics recorder and returns its counters.
func observe(fn func(ctx context.Context) error) (obs.RunStats, error) {
	met := obs.NewMetrics()
	err := fn(obs.With(context.Background(), met))
	return met.Snapshot(), err
}

func assertSameGen(t *testing.T, label string, want, got *table.GenTable) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d records, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Records {
		if !want.Records[i].Equal(got.Records[i]) {
			t.Fatalf("%s: record %d is %v, oracle %v", label, i, got.Records[i], want.Records[i])
		}
	}
}

func assertSameCounters(t *testing.T, label string, want, got obs.RunStats) {
	t.Helper()
	if !reflect.DeepEqual(want.Counters, got.Counters) {
		t.Fatalf("%s: counters %v, oracle %v", label, got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(want.Peaks, got.Peaks) {
		t.Fatalf("%s: peaks %v, oracle %v", label, got.Peaks, want.Peaks)
	}
}

// assertBoundedEvals checks Algorithm 4's work counters, the ones that are
// not oracle-equal: core.k1.scan_evals (bound sums of the records reached
// plus exact prices) and core.k1.trie_visits (trie nodes reached), which
// the oracle has not. Together they must stay within k/(k−1) of the
// oracle's full sweeps, the k·(n−1) row sums per record of a bound pass
// plus k−1 full sweeps. Both counters are removed from the maps so the
// rest compare exactly.
func assertBoundedEvals(t *testing.T, label string, k int, want, got obs.RunStats) {
	t.Helper()
	const name, visits = PhaseK1 + ".scan_evals", PhaseK1 + ".trie_visits"
	w, g, v := want.Counters[name], got.Counters[name], got.Counters[visits]
	if _, ok := got.Counters[visits]; !ok {
		t.Fatalf("%s: no %s counter", label, visits)
	}
	delete(want.Counters, name)
	delete(got.Counters, name)
	delete(got.Counters, visits)
	if k == 1 {
		if g != w || v != 0 {
			t.Fatalf("%s: %s = %d, %s = %d at k=1, oracle %d and 0", label, name, g, visits, v, w)
		}
		return
	}
	if float64(g+v) > float64(k)/float64(k-1)*float64(w) {
		t.Fatalf("%s: %s + %s = %d + %d, above k/(k−1) × the oracle's %d", label, name, visits, g, v, w)
	}
}

// assertBoundedPrices checks Algorithm 5's core.make1k.prices, the one
// counter that is not oracle-equal: production prices each class of equal
// rows once where the oracle prices every candidate row, so it may take
// no more prices than the oracle. The counter is removed from both maps so
// the rest compare exactly.
func assertBoundedPrices(t *testing.T, label string, want, got obs.RunStats) {
	t.Helper()
	const name = PhaseMake1K + ".prices"
	w, okW := want.Counters[name]
	g, okG := got.Counters[name]
	if !okW || !okG {
		t.Fatalf("%s: %s missing (oracle %v, production %v)", label, name, okW, okG)
	}
	if g > w {
		t.Fatalf("%s: %s = %d, above the oracle's %d", label, name, g, w)
	}
	delete(want.Counters, name)
	delete(got.Counters, name)
}

// assertOneMatching checks Algorithm 6's matching counters, the ones that
// differ from the oracle by design: production runs Hopcroft–Karp once per
// release and then searches for matches (core.global.search_visits), while
// the oracle recomputes every match after each of its steps. Both counters
// are removed from the maps so the rest compare exactly.
func assertOneMatching(t *testing.T, label string, want, got obs.RunStats) {
	t.Helper()
	const matchings, visits = PhaseGlobal + ".matchings", PhaseGlobal + ".search_visits"
	if g := got.Counters[matchings]; g != 1 {
		t.Fatalf("%s: %s = %d, want 1", label, matchings, g)
	}
	if w, steps := want.Counters[matchings], want.Counters[PhaseGlobal+".steps"]; w != 1+steps {
		t.Fatalf("%s: oracle %s = %d, want 1 + %d steps", label, matchings, w, steps)
	}
	if _, ok := got.Counters[visits]; !ok {
		t.Fatalf("%s: no %s counter", label, visits)
	}
	delete(want.Counters, matchings)
	delete(got.Counters, matchings)
	delete(got.Counters, visits)
}

// checkCoreEquivalence runs Algorithms 3, 4, 5 (plain and constrained), 6
// and the forest baseline on (s, tbl) and requires each to match the
// oracle in output bytes, errors and counters (Algorithm 4's scan_evals
// within assertBoundedEvals' bound, Algorithm 5's prices within
// assertBoundedPrices', Algorithm 6's matching counters as
// assertOneMatching requires).
func checkCoreEquivalence(t *testing.T, label string, s *cluster.Space, tbl *table.Table, k, workers int) {
	t.Helper()
	type stage struct {
		name string
		ref  func(ctx context.Context) (*table.GenTable, error)
		got  func(ctx context.Context) (*table.GenTable, error)
	}
	run := func(st stage) *table.GenTable {
		t.Helper()
		var want, got *table.GenTable
		wantStats, wantErr := observe(func(ctx context.Context) (err error) {
			want, err = st.ref(ctx)
			return err
		})
		gotStats, gotErr := observe(func(ctx context.Context) (err error) {
			got, err = st.got(ctx)
			return err
		})
		l := label + " " + st.name
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s: error %v, oracle %v", l, gotErr, wantErr)
		}
		if wantErr != nil {
			return nil
		}
		assertSameGen(t, l, want, got)
		switch st.name {
		case "alg4":
			assertBoundedEvals(t, l, k, wantStats, gotStats)
		case "alg5":
			assertBoundedPrices(t, l, wantStats, gotStats)
		case "alg6":
			assertOneMatching(t, l, wantStats, gotStats)
		}
		assertSameCounters(t, l, wantStats, gotStats)
		return got
	}

	run(stage{"alg3",
		func(ctx context.Context) (*table.GenTable, error) { return refK1Nearest(ctx, s, tbl, k) },
		func(ctx context.Context) (*table.GenTable, error) { return K1NearestCtx(ctx, s, tbl, k, workers) },
	})
	k1 := run(stage{"alg4",
		func(ctx context.Context) (*table.GenTable, error) { return refK1Expand(ctx, s, tbl, k) },
		func(ctx context.Context) (*table.GenTable, error) { return K1ExpandCtx(ctx, s, tbl, k, workers) },
	})
	kk := run(stage{"alg5",
		func(ctx context.Context) (*table.GenTable, error) { return refMake1K(ctx, s, tbl, k1.Clone(), k) },
		func(ctx context.Context) (*table.GenTable, error) { return Make1KCtx(ctx, s, tbl, k1.Clone(), k) },
	})
	sensitive := make([]int, tbl.Len())
	for i := range sensitive {
		sensitive[i] = (i * 7) % 3
	}
	cons := []cluster.Constraint{cluster.DistinctLDiversity(2)}
	run(stage{"alg5-constrained",
		func(ctx context.Context) (*table.GenTable, error) {
			return refMake1KConstrained(ctx, s, tbl, k1.Clone(), k, cons, sensitive)
		},
		func(ctx context.Context) (*table.GenTable, error) {
			return make1KConstrained(ctx, s, tbl, k1.Clone(), k, cons, sensitive)
		},
	})
	var wantStats, gotStats Global1KStats
	run(stage{"alg6",
		func(ctx context.Context) (g *table.GenTable, err error) {
			g, wantStats, err = refMakeGlobal1K(ctx, s, tbl, kk.Clone(), k)
			return g, err
		},
		func(ctx context.Context) (g *table.GenTable, err error) {
			g, gotStats, err = MakeGlobal1KCtx(ctx, s, tbl, kk.Clone(), k)
			return g, err
		},
	})
	if wantStats != gotStats {
		t.Fatalf("%s alg6: stats %+v, oracle %+v", label, gotStats, wantStats)
	}
	run(stage{"forest",
		func(ctx context.Context) (*table.GenTable, error) { return refForest(ctx, s, tbl, k) },
		func(ctx context.Context) (g *table.GenTable, err error) {
			g, _, err = ForestCtx(ctx, s, tbl, k)
			return g, err
		},
	})
}

// trieDepth returns the depth L of Algorithm 4's prefix trie over tbl: 0
// when the distinct first values number more than n/4, r for a table of
// duplicates (at n ≥ 4).
func trieDepth(tbl *table.Table) int { return cluster.NewRecordTrie(tbl).Depth() }

// TestCoreScansMatchOracle is the equivalence matrix: datasets {ADT, ART,
// testSpace, testSpace with a cost dip, distinct first attribute, all
// duplicates} × measures {entropy, LM} × k {2, 5, 10} × workers {1, 4}.
// The datasets span Algorithm 4's trie depths, from 0 to r.
func TestCoreScansMatchOracle(t *testing.T) {
	n := 200
	depths := map[string]int{"adt": 0, "art": 3, "test": 2, "dip": 1, "distinct": 0, "dups": 3}
	if testing.Short() {
		n = 80
		depths["art"], depths["test"] = 2, 1
	}
	for _, dataset := range []string{"adt", "art", "test", "dip", "distinct", "dups"} {
		for _, measure := range []string{"entropy", "lm"} {
			s, tbl := equivInput(t, dataset, measure, n, 5)
			if got := trieDepth(tbl); got != depths[dataset] {
				t.Fatalf("%s n=%d: trie depth %d, want %d", dataset, n, got, depths[dataset])
			}
			for _, k := range []int{2, 5, 10} {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%s k=%d workers=%d", dataset, measure, k, workers)
					checkCoreEquivalence(t, label, s, tbl, k, workers)
				}
			}
		}
	}
}

// TestCoreScansMatchOracleOverBudget runs the scans on a space whose wide
// attribute has no fused table, so its cost rows come from the walk-up
// fill of LCACostRow.
func TestCoreScansMatchOracleOverBudget(t *testing.T) {
	for _, measure := range []string{"entropy", "lm"} {
		s, tbl := equivInput(t, "wide", measure, 120, 3)
		for _, workers := range []int{1, 4} {
			checkCoreEquivalence(t, fmt.Sprintf("wide/%s k=5 workers=%d", measure, workers), s, tbl, 5, workers)
		}
	}
}

// TestK1ExpandFlatBound runs Algorithm 4 where the bounds order nothing:
// all-duplicate records (every bound and cost equal) and single-level
// hierarchies (bounds and costs in {0, 1/r, …, 1}, heavily tied). The
// output must still match the oracle, and no record may take more than
// k·(n−1) row sums and trie visits together, the bound sums included.
func TestK1ExpandFlatBound(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(8))
	dupS, dup := testSpace(t, rng, n, "lm")
	for i := range dup.Records {
		copy(dup.Records[i], dup.Records[0])
	}
	flatHiers := []*hierarchy.Hierarchy{hierarchy.Flat(3), hierarchy.Flat(2), hierarchy.Flat(4)}
	flat := table.New(table.MustSchema(
		table.MustAttribute("a", []string{"0", "1", "2"}),
		table.MustAttribute("b", []string{"0", "1"}),
		table.MustAttribute("c", []string{"0", "1", "2", "3"}),
	))
	for i := 0; i < n; i++ {
		flat.MustAppend(table.Record{rng.Intn(3), rng.Intn(2), rng.Intn(4)})
	}
	cases := []struct {
		name string
		s    *cluster.Space
		tbl  *table.Table
	}{
		{"duplicates", dupS, dup},
		{"flat/lm", measureSpace(t, flat, flatHiers, "lm"), flat},
		{"flat/entropy", measureSpace(t, flat, flatHiers, "entropy"), flat},
	}
	for _, c := range cases {
		for _, k := range []int{2, 5, 10} {
			want, err := refK1Expand(context.Background(), c.s, c.tbl, k)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s k=%d", c.name, k)
			got, err := K1ExpandCtx(context.Background(), c.s, c.tbl, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			assertSameGen(t, label, want, got)
			sc := newExpandScan(c.s, cluster.NewRecordTrie(c.tbl), n)
			out := make(table.GenRecord, c.s.NumAttrs())
			for i := 0; i < n; i++ {
				if evals, visits := sc.grow(c.tbl, i, k, out); evals+visits > int64(k*(n-1)) {
					t.Fatalf("%s: record %d took %d row sums and %d trie visits, above k·(n−1) = %d", label, i, evals, visits, k*(n-1))
				}
				if !out.Equal(want.Records[i]) {
					t.Fatalf("%s: record %d is %v, oracle %v", label, i, out, want.Records[i])
				}
			}
		}
	}
}

// TestK1ExpandCountersWorkerInvariant checks Algorithm 4's work counters
// at workers {1, 4}: core.k1.scan_evals (bound sums plus exact prices) and
// core.k1.trie_visits (trie nodes reached) are per-record sums, so they
// must not depend on the worker count. A depth-0 trie reaches no node.
func TestK1ExpandCountersWorkerInvariant(t *testing.T) {
	const evals, visits = PhaseK1 + ".scan_evals", PhaseK1 + ".trie_visits"
	for _, dataset := range []string{"art", "test", "distinct", "dups"} {
		s, tbl := equivInput(t, dataset, "entropy", 150, 3)
		var runs []obs.RunStats
		for _, workers := range []int{1, 4} {
			st, err := observe(func(ctx context.Context) error {
				_, err := K1ExpandCtx(ctx, s, tbl, 5, workers)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, st)
		}
		for _, name := range []string{evals, visits} {
			if a, b := runs[0].Counter(name), runs[1].Counter(name); a != b {
				t.Errorf("%s: %s = %d at workers 1, %d at workers 4", dataset, name, a, b)
			}
		}
		if runs[0].Events != runs[1].Events {
			t.Errorf("%s: %d events at workers 1, %d at workers 4", dataset, runs[0].Events, runs[1].Events)
		}
		if v := runs[0].Counter(visits); (v == 0) != (trieDepth(tbl) == 0) {
			t.Errorf("%s: %s = %d at trie depth %d", dataset, visits, v, trieDepth(tbl))
		}
		if runs[0].Counter(evals) == 0 {
			t.Errorf("%s: no %s", dataset, evals)
		}
	}
}

// TestCheapestMatchesSort checks the bounded selection against a full
// sort by (w, j), with many tied weights, offered in ascending j and in
// shuffled order (Algorithm 5 offers class by class).
func TestCheapestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(n + 1)
		w := make([]float64, n)
		for j := range w {
			w[j] = float64(rng.Intn(6))
		}
		order := rng.Perm(n)
		if trial%2 == 0 {
			slices.Sort(order)
		}
		var c cheapest
		c.reset(m)
		for _, j := range order {
			c.offer(j, w[j])
		}
		// Reference: repeatedly take the least (w, j) not yet taken.
		taken := make([]bool, n)
		for pos := 0; pos < m; pos++ {
			best := -1
			for j := range w {
				if !taken[j] && (best < 0 || w[j] < w[best]) {
					best = j
				}
			}
			taken[best] = true
			if got := c.best[pos]; got.j != best || got.w != w[best] {
				t.Fatalf("trial %d: position %d is (%v, %d), want (%v, %d)", trial, pos, got.w, got.j, w[best], best)
			}
		}
		if len(c.best) != m {
			t.Fatalf("trial %d: kept %d, want %d", trial, len(c.best), m)
		}
	}
}

// TestUpgradeCountersWorkerInvariant checks the work counters of
// Algorithms 5 and 6, core.make1k.prices and core.global.search_visits,
// at workers {1, 4}, through KKAnonymizeCtx and through the global
// pipeline (KKAnonymizeCtx, then MakeGlobal1KCtx). Both stages run
// sequentially on the same (k,1) release, so neither may depend on the
// worker count.
func TestUpgradeCountersWorkerInvariant(t *testing.T) {
	const prices, visits = PhaseMake1K + ".prices", PhaseGlobal + ".search_visits"
	var totals [2]int64
	for _, dataset := range []string{"adt", "art", "test", "distinct"} {
		s, tbl := equivInput(t, dataset, "entropy", 150, 3)
		var kk, global []obs.RunStats
		for _, workers := range []int{1, 4} {
			st, err := observe(func(ctx context.Context) error {
				_, err := KKAnonymizeCtx(ctx, s, tbl, 5, K1ByExpansion, nil, nil, workers)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			kk = append(kk, st)
			st, err = observe(func(ctx context.Context) error {
				g, err := KKAnonymizeCtx(ctx, s, tbl, 5, K1ByExpansion, nil, nil, workers)
				if err == nil {
					_, _, err = MakeGlobal1KCtx(ctx, s, tbl, g, 5)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			global = append(global, st)
		}
		if a, b := kk[0].Counter(prices), kk[1].Counter(prices); a != b {
			t.Errorf("%s kk: %s = %d at workers 1, %d at workers 4", dataset, prices, a, b)
		}
		for _, name := range []string{prices, visits} {
			if a, b := global[0].Counter(name), global[1].Counter(name); a != b {
				t.Errorf("%s global: %s = %d at workers 1, %d at workers 4", dataset, name, a, b)
			}
		}
		if kk[0].Counter(prices) != global[0].Counter(prices) {
			t.Errorf("%s: %s = %d in kk, %d in the global pipeline", dataset, prices, kk[0].Counter(prices), global[0].Counter(prices))
		}
		totals[0] += global[0].Counter(prices)
		totals[1] += global[0].Counter(visits)
	}
	if totals[0] == 0 || totals[1] == 0 {
		t.Errorf("no work counted: %s %d, %s %d", prices, totals[0], visits, totals[1])
	}
}

// FuzzCoreEquivalence replays the oracle comparison on fuzzed inputs of at
// most 200 records over every dataset shape.
func FuzzCoreEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(0), false, uint8(1))
	f.Add(int64(2), uint8(90), uint8(9), uint8(1), true, uint8(4))
	f.Add(int64(3), uint8(25), uint8(2), uint8(2), true, uint8(2))
	f.Add(int64(4), uint8(30), uint8(5), uint8(3), false, uint8(3))
	f.Add(int64(5), uint8(198), uint8(4), uint8(4), true, uint8(1))
	f.Add(int64(6), uint8(120), uint8(6), uint8(5), false, uint8(4))
	f.Add(int64(7), uint8(60), uint8(3), uint8(6), true, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nb, kb, dsb uint8, lm bool, wb uint8) {
		n := 2 + int(nb)%199
		k := 1 + int(kb)%min(n, 12)
		dataset := []string{"adt", "art", "test", "wide", "dip", "distinct", "dups"}[int(dsb)%7]
		measure := "entropy"
		if lm {
			measure = "lm"
		}
		s, tbl := equivInput(t, dataset, measure, n, seed)
		if want, ok := map[string]int{"distinct": 0, "dups": s.NumAttrs()}[dataset]; ok && n >= 4 {
			if got := trieDepth(tbl); got != want {
				t.Fatalf("%s n=%d: trie depth %d, want %d", dataset, n, got, want)
			}
		}
		checkCoreEquivalence(t, fmt.Sprintf("%s/%s n=%d k=%d", dataset, measure, n, k), s, tbl, k, 1+int(wb)%4)
	})
}
