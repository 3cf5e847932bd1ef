package cluster

import (
	"math"
	"slices"
	"testing"

	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

const eps = 1e-12

// twoAttrSpace builds a 2-attribute space: x over {a,b,c,d} with subsets
// {a,b},{c,d}, y over {p,q} flat, LM measure.
func twoAttrSpace(t *testing.T) (*Space, *table.Table) {
	t.Helper()
	schema := table.MustSchema(
		table.MustAttribute("x", []string{"a", "b", "c", "d"}),
		table.MustAttribute("y", []string{"p", "q"}),
	)
	tbl := table.New(schema)
	for _, r := range [][2]int{{0, 0}, {1, 0}, {2, 1}, {3, 1}, {0, 1}, {2, 0}} {
		tbl.MustAppend(table.Record{r[0], r[1]})
	}
	hx, err := hierarchy.FromSubsets(4, []hierarchy.Subset{
		{Values: []int{0, 1}}, {Values: []int{2, 3}},
	}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hiers := []*hierarchy.Hierarchy{hx, hierarchy.Flat(2)}
	s, err := NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(nil, loss.NewLM(nil)); err == nil {
		t.Error("expected error for no hierarchies")
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(2)}
	wrong := loss.NewLM([]*hierarchy.Hierarchy{hierarchy.Flat(2), hierarchy.Flat(2)})
	if _, err := NewSpace(hiers, wrong); err == nil {
		t.Error("expected attr-count mismatch error")
	}
	lm := loss.NewLM(hiers)
	for _, c := range []float64{-1e-300, -1, math.NaN(), math.Inf(-1)} {
		if _, err := NewSpace(hiers, rootCost{lm, hiers[0].Root(), c}); err == nil {
			t.Errorf("expected an error for a node cost of %v", c)
		}
	}
	for _, c := range []float64{0, math.Copysign(0, -1), 2} {
		if _, err := NewSpace(hiers, rootCost{lm, hiers[0].Root(), c}); err != nil {
			t.Errorf("node cost %v rejected: %v", c, err)
		}
	}
}

// rootCost is a measure whose root nodes cost c.
type rootCost struct {
	loss.Measure
	root int
	c    float64
}

func (m rootCost) Cost(j, node int) float64 {
	if node == m.root {
		return m.c
	}
	return m.Measure.Cost(j, node)
}

func TestLeafClosureAndConsistency(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	g := s.LeafClosure(tbl.Records[0])
	if !s.Consistent(tbl.Records[0], g) {
		t.Error("record inconsistent with its own leaf closure")
	}
	if s.Consistent(tbl.Records[1], g) {
		t.Error("different record consistent with a leaf closure")
	}
}

func TestClosureOfCoversMembers(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	members := []int{0, 1, 4}
	cl := s.ClosureOf(tbl, members)
	for _, i := range members {
		if !s.Consistent(tbl.Records[i], cl) {
			t.Errorf("member %d not covered by closure", i)
		}
	}
	// {a,b,a} x {p,p,q} -> x: {a,b}, y: root.
	if s.Hiers[0].Size(cl[0]) != 2 {
		t.Errorf("x closure size = %d, want 2", s.Hiers[0].Size(cl[0]))
	}
	if cl[1] != s.Hiers[1].Root() {
		t.Error("y closure should be root")
	}
}

func TestClosureOfEmptyPanics(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	defer func() {
		if recover() == nil {
			t.Error("ClosureOf(empty) did not panic")
		}
	}()
	s.ClosureOf(tbl, nil)
}

func TestMergeClosuresMatchesClosureOf(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	a := s.ClosureOf(tbl, []int{0, 1})
	b := s.ClosureOf(tbl, []int{2, 3})
	merged := s.MergeClosures(a, b)
	direct := s.ClosureOf(tbl, []int{0, 1, 2, 3})
	if !slices.Equal(merged, direct) {
		t.Errorf("MergeClosures = %v, ClosureOf = %v", merged, direct)
	}
}

func TestMergeInto(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	a := s.ClosureOf(tbl, []int{0})
	b := s.ClosureOf(tbl, []int{3})
	want := s.MergeClosures(a, b)
	s.MergeInto(a, b)
	if !slices.Equal(a, want) {
		t.Errorf("MergeInto = %v, want %v", a, want)
	}
}

func TestCostAndCostAt(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	cl := s.ClosureOf(tbl, []int{0, 1}) // x:{a,b} LM=1/3, y:{p} LM=0
	want := (1.0/3 + 0) / 2
	if got := s.Cost(cl); math.Abs(got-want) > eps {
		t.Errorf("Cost = %v, want %v", got, want)
	}
	if got := s.CostAt(0, cl[0]); math.Abs(got-1.0/3) > eps {
		t.Errorf("CostAt = %v, want 1/3", got)
	}
	// CostAt must agree with the measure for every node.
	for j, h := range s.Hiers {
		for u := 0; u < h.NumNodes(); u++ {
			if s.CostAt(j, u) != s.Measure.Cost(j, u) {
				t.Fatalf("CostAt(%d,%d) disagrees with measure", j, u)
			}
		}
	}
}

func TestClusterOps(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	c0 := s.NewSingleton(tbl, 0)
	if c0.Size() != 1 || c0.Cost != 0 {
		t.Errorf("singleton: size=%d cost=%v", c0.Size(), c0.Cost)
	}
	c1 := s.NewSingleton(tbl, 1)
	m := s.Merge(c0, c1)
	if m.Size() != 2 {
		t.Errorf("merged size = %d, want 2", m.Size())
	}
	if math.Abs(m.Cost-s.Cost(m.Closure)) > eps {
		t.Error("merged cost not cached correctly")
	}
	// Merge must not mutate its arguments.
	if c0.Size() != 1 || c1.Size() != 1 {
		t.Error("Merge mutated inputs")
	}
}

func TestClusterApplyAndToGenTable(t *testing.T) {
	s, tbl := twoAttrSpace(t)
	c := s.NewCluster(tbl, []int{0, 1})
	c2 := s.NewCluster(tbl, []int{2, 3, 4, 5})
	g := ToGenTable(tbl.Schema, tbl.Len(), []*Cluster{c, c2})
	for _, i := range c.Members {
		if !slices.Equal(g.Records[i], c.Closure) {
			t.Errorf("record %d not assigned its cluster closure", i)
		}
	}
	for _, i := range c2.Members {
		if !slices.Equal(g.Records[i], c2.Closure) {
			t.Errorf("record %d not assigned its cluster closure", i)
		}
	}
}

func TestDistanceFormulas(t *testing.T) {
	// Hand-checked formula evaluations.
	const (
		sa, sb, su = 2, 3, 5
		dA, dB, dU = 0.2, 0.4, 0.9
	)
	if got := (D1{}).Eval(sa, sb, su, dA, dB, dU); math.Abs(got-(5*0.9-2*0.2-3*0.4)) > eps {
		t.Errorf("D1 = %v", got)
	}
	if got := (D2{}).Eval(sa, sb, su, dA, dB, dU); math.Abs(got-(0.9-0.2-0.4)) > eps {
		t.Errorf("D2 = %v", got)
	}
	want3 := (0.9 - 0.2 - 0.4) / math.Log(5)
	if got := (D3{}).Eval(sa, sb, su, dA, dB, dU); math.Abs(got-want3) > eps {
		t.Errorf("D3 = %v, want %v", got, want3)
	}
	want4 := 0.9 / (0.2 + 0.4 + 0.1)
	if got := (D4{}).Eval(sa, sb, su, dA, dB, dU); math.Abs(got-want4) > eps {
		t.Errorf("D4 = %v, want %v", got, want4)
	}
	if got := (NC{}).Eval(sa, sb, su, dA, dB, dU); math.Abs(got-(0.9-0.4)) > eps {
		t.Errorf("NC = %v", got)
	}
}

// TestD4EpsilonDefault checks eq. (11) with the paper's ε = 0.1:
// d(A∪B) / (d(A) + d(B) + 0.1), finite for a singleton pair.
func TestD4EpsilonDefault(t *testing.T) {
	if d4Epsilon != 0.1 {
		t.Errorf("ε = %v, want 0.1", d4Epsilon)
	}
	if got := (D4{}).Eval(1, 1, 2, 0, 0, 0.5); math.Abs(got-5) > eps {
		t.Errorf("D4 with zero costs = %v, want 0.5 / 0.1 = 5", got)
	}
	if got := (D4{}).Eval(3, 2, 5, 0.2, 0.3, 0.9); math.Abs(got-1.5) > eps {
		t.Errorf("D4 = %v, want 0.9 / (0.2 + 0.3 + 0.1) = 1.5", got)
	}
}

func TestD3DegenerateUnion(t *testing.T) {
	// |A∪B| = 1 falls back to the undivided difference.
	if got := (D3{}).Eval(1, 0, 1, 0.1, 0.2, 0.9); math.Abs(got-(0.9-0.1-0.2)) > eps {
		t.Errorf("D3 degenerate = %v", got)
	}
}

func TestD2CanBeNegative(t *testing.T) {
	if got := (D2{}).Eval(1, 1, 2, 0.5, 0.5, 0.6); got >= 0 {
		t.Errorf("D2 = %v, expected negative", got)
	}
}

func TestDistanceByName(t *testing.T) {
	for _, name := range []string{"d1", "d2", "d3", "d4", "nc"} {
		if d := DistanceByName(name); d == nil || d.Name() != name {
			t.Errorf("DistanceByName(%q) = %v", name, d)
		}
	}
	if DistanceByName("bogus") != nil {
		t.Error("DistanceByName(bogus) should be nil")
	}
	if len(PaperDistances()) != 4 || len(AllDistances()) != 5 {
		t.Error("distance inventories wrong")
	}
}
