package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

const eps = 1e-9

func smallSetup(t *testing.T) (*table.Table, []*hierarchy.Hierarchy) {
	t.Helper()
	schema := table.MustSchema(
		table.MustAttribute("x", []string{"a", "b", "c", "d"}),
		table.MustAttribute("y", []string{"p", "q"}),
	)
	tbl := table.New(schema)
	for _, r := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {0, 1}, {1, 1}} {
		tbl.MustAppend(table.Record{r[0], r[1]})
	}
	hx, err := hierarchy.FromSubsets(4, []hierarchy.Subset{
		{Values: []int{0, 1}}, {Values: []int{2, 3}},
	}, "*")
	if err != nil {
		t.Fatal(err)
	}
	return tbl, []*hierarchy.Hierarchy{hx, hierarchy.Flat(2)}
}

func TestTrueCount(t *testing.T) {
	tbl, hiers := smallSetup(t)
	// x ∈ {a,b}: records 0,1,4,5.
	ab := hiers[0].Closure([]int{0, 1})
	q := Query{Attrs: []int{0}, Nodes: []int{ab}}
	if got := TrueCount(tbl, hiers, q); got != 4 {
		t.Errorf("TrueCount = %d, want 4", got)
	}
	// x ∈ {a,b} AND y = q: records 4,5.
	q2 := Query{Attrs: []int{0, 1}, Nodes: []int{ab, hiers[1].LeafOf(1)}}
	if got := TrueCount(tbl, hiers, q2); got != 2 {
		t.Errorf("TrueCount conj = %d, want 2", got)
	}
}

func TestEstimateExactOnIdentity(t *testing.T) {
	// On the identity generalization the estimate equals the true count.
	tbl, hiers := smallSetup(t)
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i, r := range tbl.Records {
		for j, v := range r {
			g.Records[i][j] = hiers[j].LeafOf(v)
		}
	}
	rng := rand.New(rand.NewSource(1))
	queries, err := Generate(rng, hiers, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		truth := float64(TrueCount(tbl, hiers, q))
		est := EstimateCount(g, hiers, q)
		if math.Abs(truth-est) > eps {
			t.Fatalf("query %v: identity estimate %v != true %v", q, est, truth)
		}
	}
}

func TestEstimateUniformExpansion(t *testing.T) {
	tbl, hiers := smallSetup(t)
	// One record generalized to x∈{a,b}: predicate x=a gets mass 1/2.
	g := table.NewGen(tbl.Schema, 1)
	g.Records[0][0] = hiers[0].Closure([]int{0, 1})
	g.Records[0][1] = hiers[1].LeafOf(0)
	q := Query{Attrs: []int{0}, Nodes: []int{hiers[0].LeafOf(0)}}
	if got := EstimateCount(g, hiers, q); math.Abs(got-0.5) > eps {
		t.Errorf("estimate = %v, want 0.5", got)
	}
	// Predicate on the disjoint subset {c,d}: mass 0.
	q2 := Query{Attrs: []int{0}, Nodes: []int{hiers[0].Closure([]int{2, 3})}}
	if got := EstimateCount(g, hiers, q2); got != 0 {
		t.Errorf("disjoint estimate = %v, want 0", got)
	}
	// Record inside predicate: full mass.
	q3 := Query{Attrs: []int{0}, Nodes: []int{hiers[0].Closure([]int{0, 1})}}
	if got := EstimateCount(g, hiers, q3); math.Abs(got-1) > eps {
		t.Errorf("nested estimate = %v, want 1", got)
	}
	_ = tbl
}

func TestEstimateMassConservation(t *testing.T) {
	// Summing estimates over a partition of an attribute's domain must
	// reproduce the table size (for single-attribute queries over leaf
	// partitions).
	ds := datagen.ART(150, 2)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < len(ds.Hiers); a++ {
		total := 0.0
		for v := 0; v < ds.Hiers[a].NumValues(); v++ {
			q := Query{Attrs: []int{a}, Nodes: []int{ds.Hiers[a].LeafOf(v)}}
			total += EstimateCount(g, ds.Hiers, q)
		}
		if math.Abs(total-float64(ds.Table.Len())) > 1e-6 {
			t.Errorf("attr %d: estimated mass %v != n=%d", a, total, ds.Table.Len())
		}
	}
}

func TestGenerate(t *testing.T) {
	_, hiers := smallSetup(t)
	rng := rand.New(rand.NewSource(3))
	queries, err := Generate(rng, hiers, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 50 {
		t.Fatalf("got %d queries", len(queries))
	}
	for _, q := range queries {
		if len(q.Attrs) < 1 || len(q.Attrs) > 2 {
			t.Errorf("arity %d out of range", len(q.Attrs))
		}
		for i, a := range q.Attrs {
			if q.Nodes[i] == hiers[a].Root() {
				t.Error("vacuous root predicate generated")
			}
		}
	}
	if _, err := Generate(rng, hiers, 5, 0); err == nil {
		t.Error("expected arity error")
	}
	if _, err := Generate(rng, hiers, 5, 3); err == nil {
		t.Error("expected arity > attrs error")
	}
}

func TestEvaluate(t *testing.T) {
	tbl, hiers := smallSetup(t)
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i, r := range tbl.Records {
		for j, v := range r {
			g.Records[i][j] = hiers[j].LeafOf(v)
		}
	}
	rng := rand.New(rand.NewSource(4))
	queries, err := Generate(rng, hiers, 21, 2)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(tbl, g, hiers, queries)
	if acc.Queries != 21 {
		t.Errorf("Queries = %d", acc.Queries)
	}
	if acc.MeanRelError > eps || acc.MedianRelError > eps || acc.MaxAbsError > eps {
		t.Errorf("identity release should have zero error: %+v", acc)
	}
	if got := Evaluate(tbl, g, hiers, nil); got.Queries != 0 {
		t.Error("empty workload should be a zero Accuracy")
	}
}

func TestEvaluateEvenQueryCountMedian(t *testing.T) {
	tbl, hiers := smallSetup(t)
	// Fully suppressed release: large errors; just exercise the even-count
	// median branch.
	g := table.NewGen(tbl.Schema, tbl.Len())
	for i := range g.Records {
		for j := range g.Records[i] {
			g.Records[i][j] = hiers[j].Root()
		}
	}
	rng := rand.New(rand.NewSource(5))
	queries, err := Generate(rng, hiers, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(tbl, g, hiers, queries)
	if acc.MeanRelError < 0 {
		t.Error("negative error")
	}
}

// TestLessGeneralizationMoreAccuracy is the utility story of the paper in
// workload terms: the (k,k) release answers the workload at least as
// accurately as the forest release on aggregate.
func TestLessGeneralizationMoreAccuracy(t *testing.T) {
	ds := datagen.Adult(250, 6)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	gKK, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	gF, _, err := core.ForestCtx(nil, s, ds.Table, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	queries, err := Generate(rng, ds.Hiers, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	accKK := Evaluate(ds.Table, gKK, ds.Hiers, queries)
	accF := Evaluate(ds.Table, gF, ds.Hiers, queries)
	if accKK.MeanRelError > accF.MeanRelError*1.2+eps {
		t.Errorf("(k,k) mean error %.4f much worse than forest %.4f",
			accKK.MeanRelError, accF.MeanRelError)
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Attrs: []int{0, 2}, Nodes: []int{5, 7}}
	s := q.String()
	if !strings.Contains(s, "attr0") || !strings.Contains(s, "AND") {
		t.Errorf("query string %q", s)
	}
}
