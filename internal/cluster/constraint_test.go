package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// bindOver binds c over the column and fails the test on error.
func bindOver(t *testing.T, c Constraint, sensitive []int) Bound {
	t.Helper()
	b, err := c.Bind(sensitive)
	if err != nil {
		t.Fatalf("%s: bind: %v", c, err)
	}
	return b
}

// loadMembers resets b and adds the given record indices.
func loadMembers(b Bound, members ...int) {
	b.Reset()
	for _, ri := range members {
		b.Add(ri)
	}
}

func TestDistinctLDiversityBound(t *testing.T) {
	sens := []int{0, 0, 1, 1, 2}
	c := DistinctLDiversity(2)
	if c.Trivial() {
		t.Error("distinct l=2 must not be trivial")
	}
	if !DistinctLDiversity(1).Trivial() || !DistinctLDiversity(0).Trivial() {
		t.Error("distinct l ≤ 1 must be trivial")
	}
	b := bindOver(t, c, sens)
	if !b.AdditionSafe() {
		t.Error("distinct diversity is monotone under addition")
	}
	loadMembers(b, 0, 1)
	if b.Satisfied() {
		t.Error("{0,0} satisfied distinct 2-diversity")
	}
	if b.Metric() != 1 {
		t.Errorf("metric = %g, want 1", b.Metric())
	}
	if !b.SatisfiedWithAdd(2) {
		t.Error("adding a new value must satisfy")
	}
	if b.SatisfiedWithAdd(1) {
		t.Error("adding a duplicate must not satisfy")
	}
	if !b.Improves(2) || b.Improves(1) {
		t.Error("Improves must mark exactly the new-value candidates")
	}
	b.Add(2)
	if !b.Satisfied() || !b.Decided() {
		t.Error("{0,0,1} must satisfy and be decided (monotone)")
	}
	if b.CanEvict(2) {
		t.Error("evicting the only value-1 record must be inadmissible")
	}
	if !b.CanEvict(0) {
		t.Error("evicting a duplicated value must be admissible")
	}
	b.Evict(0)
	if !b.Satisfied() {
		t.Error("{0,1} must still satisfy after evicting a duplicate")
	}
}

func TestDistinctLDiversityBindErrors(t *testing.T) {
	_, err := DistinctLDiversity(3).Bind([]int{0, 1, 0, 1})
	if err == nil || !strings.Contains(err.Error(), "2 distinct sensitive values, 3-diversity unattainable") {
		t.Errorf("infeasible bind error = %v", err)
	}
	if _, err := DistinctLDiversity(2).Bind([]int{0, -1}); err == nil {
		t.Error("negative value id must fail Bind")
	}
}

func TestEntropyLDiversityBound(t *testing.T) {
	// Uniform over two values: H = log 2, exactly entropy 2-diverse.
	sens := []int{0, 0, 1, 1}
	b := bindOver(t, EntropyLDiversity(2), sens)
	loadMembers(b, 0, 1, 2, 3)
	if !b.Satisfied() {
		t.Error("uniform 2-value histogram must satisfy entropy l=2")
	}
	if got := b.Metric(); math.Abs(got-2) > 1e-12 {
		t.Errorf("effective l = %g, want 2", got)
	}
	// Skewed {0,0,1}: H = log 3 − (2 log 2)/3 < log 2.
	loadMembers(b, 0, 1, 2)
	if b.Satisfied() {
		t.Error("skewed histogram must fail entropy l=2")
	}
	if b.AdditionSafe() || b.Decided() {
		t.Error("entropy diversity is not monotone under addition")
	}
	if !b.Improves(3) {
		t.Error("adding the minority value must raise entropy")
	}
	if EntropyLDiversity(1).Trivial() != true || EntropyLDiversity(1.5).Trivial() {
		t.Error("entropy triviality: l ≤ 1 trivial, l > 1 not")
	}
	// Infeasible: whole table too skewed for l=2.
	if _, err := EntropyLDiversity(2).Bind([]int{0, 0, 0, 0, 0, 0, 0, 1}); err == nil {
		t.Error("expected infeasible entropy bind to fail")
	}
	if _, err := EntropyLDiversity(math.Inf(1)).Bind(sens); err == nil {
		t.Error("expected non-finite l to fail Bind")
	}
}

func TestRecursiveCLBound(t *testing.T) {
	// Counts {3,1,1} descending: r1 = 3, tail(l=2) = 2.
	sens := []int{0, 0, 0, 1, 2}
	b := bindOver(t, RecursiveCL(2, 2), sens)
	loadMembers(b, 0, 1, 2, 3, 4)
	if !b.Satisfied() { // 3 < 2·2
		t.Error("(2,2): 3 < 4 must satisfy")
	}
	if got := b.Metric(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("ratio = %g, want 1.5", got)
	}
	loadMembers(b, 0, 1, 2, 3)
	if b.Satisfied() { // counts {3,1}: 3 < 2·1 is false
		t.Error("(2,2) over {3,1} must fail")
	}
	if !b.Improves(4) {
		t.Error("adding a tail value must lower the ratio")
	}
	// The whole-table ratio is exactly c: r1 < c·tail fails, so binding
	// c=1.5 over this table is infeasible.
	if _, err := RecursiveCL(1.5, 2).Bind(sens); err == nil {
		t.Error("table at ratio exactly c must fail Bind")
	}
	// Fewer distinct values than l: tail empty, never satisfied.
	loadMembers(b, 0, 1)
	if b.Satisfied() {
		t.Error("single-value histogram must fail recursive (c,2)")
	}
	if !math.IsInf(b.Metric(), 1) {
		t.Errorf("empty-tail ratio = %g, want +Inf", b.Metric())
	}
	// Parameter and feasibility validation.
	if _, err := RecursiveCL(2, 1).Bind(sens); err == nil {
		t.Error("l < 2 must fail Bind")
	}
	if _, err := RecursiveCL(0, 2).Bind(sens); err == nil {
		t.Error("c ≤ 0 must fail Bind")
	}
	if _, err := RecursiveCL(1, 2).Bind([]int{0, 0, 0, 0, 1}); err == nil {
		t.Error("table ratio 4 ≥ c=1 must fail Bind")
	}
}

// TestRecursiveRatioMatchesSort checks the top-(ℓ−1) ratio against its
// definition, r₁ / (r_ℓ + … + r_m) over the counts sorted descending, bit
// for bit on random histograms with ties, zeros and fewer than ℓ values.
func TestRecursiveRatioMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		l := 2 + rng.Intn(4)
		st := countState{counts: make([]int, 1+rng.Intn(8))}
		for v := range st.counts {
			if rng.Intn(3) > 0 {
				st.counts[v] = rng.Intn(6)
			}
			st.size += st.counts[v]
		}
		rs := slices.DeleteFunc(slices.Clone(st.counts), func(c int) bool { return c == 0 })
		slices.SortFunc(rs, func(a, b int) int { return b - a })
		want := 0.0
		if len(rs) > 0 {
			tail := 0
			for _, c := range rs[min(l-1, len(rs)):] {
				tail += c
			}
			want = math.Inf(1)
			if tail > 0 {
				want = float64(rs[0]) / float64(tail)
			}
		}
		p := recursivePred{c: 2, l: l, scratch: make([]int, l-1)}
		if got := p.ratio(&st); got != want {
			t.Fatalf("l=%d counts %v: ratio %v, want %v", l, st.counts, got, want)
		}
	}
}

func TestTClosenessEqualGround(t *testing.T) {
	// Table distribution q = (1/2, 1/2).
	sens := []int{0, 0, 1, 1}
	b := bindOver(t, TCloseness(0.5), sens)
	loadMembers(b, 0, 2)
	if got := b.Metric(); got != 0 {
		t.Errorf("matching distribution: EMD = %g, want exactly 0", got)
	}
	loadMembers(b, 0, 1)
	if got := b.Metric(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("homogeneous cluster: TV = %g, want 0.5", got)
	}
	if !b.Satisfied() { // 0.5 ≤ 0.5
		t.Error("t=0.5 must admit TV exactly 0.5")
	}
	b04 := bindOver(t, TCloseness(0.4), sens)
	loadMembers(b04, 0, 1)
	if b04.Satisfied() {
		t.Error("t=0.4 must reject TV 0.5")
	}
	if !b04.Improves(2) {
		t.Error("adding the missing value must shrink the EMD")
	}
	// t = 0: only distribution-preserving clusters pass.
	b0 := bindOver(t, TCloseness(0), sens)
	loadMembers(b0, 0, 2)
	if !b0.Satisfied() {
		t.Error("t=0 must admit an exactly-proportional cluster")
	}
	loadMembers(b0, 0, 1, 2)
	if b0.Satisfied() {
		t.Error("t=0 must reject any skew")
	}
	// t ≥ 1 is trivial; negative or NaN t is rejected.
	if !TCloseness(1).Trivial() || TCloseness(0.99).Trivial() {
		t.Error("t-closeness triviality boundary at t=1")
	}
	if _, err := TCloseness(-0.1).Bind(sens); err == nil {
		t.Error("t < 0 must fail Bind")
	}
	if _, err := TCloseness(math.NaN()).Bind(sens); err == nil {
		t.Error("NaN t must fail Bind")
	}
}

func TestTClosenessOrderedGround(t *testing.T) {
	// Domain {0,1,2} at positions {0,1,2}; table uniform.
	sens := []int{0, 1, 2}
	pos := []float64{0, 1, 2}
	b := bindOver(t, TClosenessOrdered(0.51, pos), sens)
	// Cluster {value 0}: CDF gaps |1−1/3| and |1−2/3| over unit steps,
	// scaled by span 2 → (2/3 + 1/3)/2 = 0.5.
	loadMembers(b, 0)
	if got := b.Metric(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ordered EMD = %g, want 0.5", got)
	}
	if !b.Satisfied() {
		t.Error("t=0.51 must admit ordered EMD 0.5")
	}
	bTight := bindOver(t, TClosenessOrdered(0.4, pos), sens)
	loadMembers(bTight, 0)
	if bTight.Satisfied() {
		t.Error("t=0.4 must reject ordered EMD 0.5")
	}
	// The middle value is closer to uniform than an extreme under the
	// ordered ground (cum diffs 2/3·1 then |{1}|: (0−1/3) + (1−1/3)… ):
	loadMembers(b, 1)
	mid := b.Metric()
	loadMembers(b, 0)
	if ext := b.Metric(); mid >= ext {
		t.Errorf("ordered ground: middle value EMD %g should be below extreme %g", mid, ext)
	}
	// Proportionally equal distributions give exactly 0 (t=0 usable).
	prop := []int{0, 0, 1, 1, 2, 2}
	b0 := bindOver(t, TClosenessOrdered(0, pos), prop)
	loadMembers(b0, 0, 2, 4)
	if got := b0.Metric(); got != 0 {
		t.Errorf("proportional cluster: ordered EMD = %g, want exactly 0", got)
	}
	if !b0.Satisfied() {
		t.Error("t=0 must admit the proportional cluster")
	}
	// Position table shorter than the domain is rejected.
	if _, err := TClosenessOrdered(0.2, []float64{0}).Bind(sens); err == nil {
		t.Error("short position table must fail Bind")
	}
}

// TestConstraintEngineSatisfaction runs the engine under each constraint
// notion and verifies every final cluster satisfies it — via a fresh bound
// evaluated from scratch, independent of the engine's incremental state.
func TestConstraintEngineSatisfaction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s, tbl := randomSpace(t, rng, 60)
	sens := make([]int, tbl.Len())
	for i := range sens {
		sens[i] = rng.Intn(3)
	}
	cases := []Constraint{
		DistinctLDiversity(2),
		EntropyLDiversity(1.6),
		RecursiveCL(4, 2),
		TCloseness(0.6),
	}
	for _, c := range cases {
		for _, modified := range []bool{false, true} {
			clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{
				K: 3, Distance: D3{}, Modified: modified,
				Constraints: []Constraint{c}, Sensitive: sens,
			})
			if err != nil {
				t.Fatalf("%s modified=%v: %v", c, modified, err)
			}
			check := bindOver(t, c, sens)
			for ci, cl := range clusters {
				loadMembers(check, cl.Members...)
				if !check.Satisfied() {
					t.Errorf("%s modified=%v: cluster %d (size %d) violates, metric %g",
						c, modified, ci, len(cl.Members), check.Metric())
				}
			}
		}
	}
}

// TestConstraintKernelEquivalence verifies the engine matches the naive
// oracle for every constraint notion, across worker counts — the
// determinism contract extended to the constraints.
func TestConstraintKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s, tbl := randomSpace(t, rng, 80)
	sens := make([]int, tbl.Len())
	for i := range sens {
		sens[i] = rng.Intn(4)
	}
	cases := []Constraint{
		DistinctLDiversity(3),
		EntropyLDiversity(2),
		RecursiveCL(3, 2),
		TCloseness(0.5),
		// Tight enough that the guarded absorb passes over the nearest
		// final cluster for a satisfying one.
		TCloseness(0.3),
	}
	for _, c := range cases {
		for _, modified := range []bool{false, true} {
			assertMatchesOracle(t, fmt.Sprintf("%s modified=%v", c, modified), s, tbl, AggloOptions{
				K: 4, Distance: D3{}, Modified: modified,
				Constraints: []Constraint{c}, Sensitive: sens,
			})
		}
	}
}

// TestConstraintEdgeCases covers the degenerate inputs of the constraint
// surface: single-record tables, uniform sensitive columns, unattainable
// parameters, and the t-closeness bounds.
func TestConstraintEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s, tbl := randomSpace(t, rng, 1)
	// Single record, trivially satisfiable constraint: one singleton out.
	clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{
		K: 1, Distance: D3{}, Constraints: []Constraint{TCloseness(0.5)}, Sensitive: []int{0},
	})
	if err != nil {
		t.Fatalf("single record: %v", err)
	}
	if len(clusters) != 1 || len(clusters[0].Members) != 1 {
		t.Errorf("single record: got %d clusters", len(clusters))
	}
	// Single record, unattainable diversity: Bind-time error.
	if _, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{
		K: 1, Distance: D3{}, Constraints: []Constraint{DistinctLDiversity(2)}, Sensitive: []int{0},
	}); err == nil {
		t.Error("single record with l=2 must fail")
	}

	s10, tbl10 := randomSpace(t, rng, 10)
	uniform := make([]int, tbl10.Len())
	// Uniform sensitive column: any diversity ≥ 2 unattainable; t-closeness
	// trivially at EMD 0 for every cluster.
	if _, _, err := AgglomerateStatsCtx(nil, s10, tbl10, AggloOptions{
		K: 2, Distance: D3{}, Constraints: []Constraint{DistinctLDiversity(2)}, Sensitive: uniform,
	}); err == nil {
		t.Error("uniform column with distinct l=2 must fail")
	}
	if _, _, err := AgglomerateStatsCtx(nil, s10, tbl10, AggloOptions{
		K: 2, Distance: D3{}, Constraints: []Constraint{EntropyLDiversity(2)}, Sensitive: uniform,
	}); err == nil {
		t.Error("uniform column with entropy l=2 must fail")
	}
	clusters, _, err = AgglomerateStatsCtx(nil, s10, tbl10, AggloOptions{
		K: 2, Distance: D3{}, Constraints: []Constraint{TCloseness(0)}, Sensitive: uniform,
	})
	if err != nil {
		t.Fatalf("uniform column with t=0: %v", err)
	}
	for ci, c := range clusters {
		if len(c.Members) < 2 {
			t.Errorf("t=0 uniform: cluster %d undersized", ci)
		}
	}
	// l greater than the distinct-value count.
	sens := make([]int, tbl10.Len())
	for i := range sens {
		sens[i] = i % 3
	}
	if _, _, err := AgglomerateStatsCtx(nil, s10, tbl10, AggloOptions{
		K: 2, Distance: D3{}, Constraints: []Constraint{DistinctLDiversity(4)}, Sensitive: sens,
	}); err == nil {
		t.Error("l=4 over a 3-value domain must fail")
	}
	// t=1 is trivial: dropped before binding, so no sensitive column is
	// required and k=1 takes the singleton fast path.
	clusters, _, err = AgglomerateStatsCtx(nil, s10, tbl10, AggloOptions{
		K: 1, Distance: D3{}, Constraints: []Constraint{TCloseness(1)},
	})
	if err != nil {
		t.Fatalf("trivial t=1: %v", err)
	}
	if len(clusters) != tbl10.Len() {
		t.Errorf("trivial t=1 with k=1: got %d clusters, want %d singletons", len(clusters), tbl10.Len())
	}
	// Multiple constraints compose: all must hold.
	multi, _, err := AgglomerateStatsCtx(nil, s10, tbl10, AggloOptions{
		K: 2, Distance: D3{},
		Constraints: []Constraint{DistinctLDiversity(2), TCloseness(0.9)},
		Sensitive:   sens,
	})
	if err != nil {
		t.Fatalf("composed constraints: %v", err)
	}
	for ci, c := range multi {
		distinct := map[int]bool{}
		for _, ri := range c.Members {
			distinct[sens[ri]] = true
		}
		if len(distinct) < 2 {
			t.Errorf("composed: cluster %d not 2-diverse", ci)
		}
	}
}
