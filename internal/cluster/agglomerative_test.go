package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// randomSpace builds a random table (n records, 3 attributes) and an LM
// space over interval hierarchies.
func randomSpace(t testing.TB, rng *rand.Rand, n int) (*Space, *table.Table) {
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
	s, err := NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// checkClustering asserts the structural invariants of a final clustering:
// disjoint clusters covering all records, all of size ≥ k, closures
// covering their members, costs cached correctly.
func checkClustering(t *testing.T, s *Space, tbl *table.Table, clusters []*Cluster, k int) {
	t.Helper()
	seen := make([]bool, tbl.Len())
	for ci, c := range clusters {
		if c.Size() < k {
			t.Errorf("cluster %d has size %d < k=%d", ci, c.Size(), k)
		}
		for _, i := range c.Members {
			if seen[i] {
				t.Errorf("record %d in two clusters", i)
			}
			seen[i] = true
			if !s.Consistent(tbl.Records[i], c.Closure) {
				t.Errorf("cluster %d closure does not cover member %d", ci, i)
			}
		}
		if math.Abs(c.Cost-s.Cost(c.Closure)) > eps {
			t.Errorf("cluster %d cached cost %v != %v", ci, c.Cost, s.Cost(c.Closure))
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("record %d not clustered", i)
		}
	}
}

func TestAgglomerateInvariantsAllDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, dist := range AllDistances() {
		for _, modified := range []bool{false, true} {
			for _, k := range []int{2, 3, 5} {
				s, tbl := randomSpace(t, rng, 40)
				clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: k, Distance: dist, Modified: modified})
				if err != nil {
					t.Fatalf("%s modified=%v k=%d: %v", dist.Name(), modified, k, err)
				}
				checkClustering(t, s, tbl, clusters, k)
			}
		}
	}
}

func TestAgglomerateModifiedPrefersExactK(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s, tbl := randomSpace(t, rng, 60)
	const k = 4
	clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: k, Distance: D3{}, Modified: true})
	if err != nil {
		t.Fatal(err)
	}
	// All clusters except those that absorbed leftovers have size exactly k.
	oversize := 0
	for _, c := range clusters {
		if c.Size() > k {
			oversize++
		}
	}
	// 60 = 15·4, so the leftover-absorption step may enlarge only a few
	// clusters; the bulk must be exactly k.
	if oversize > len(clusters)/2 {
		t.Errorf("%d of %d clusters oversize; modified algorithm should shrink to k", oversize, len(clusters))
	}
}

func TestAgglomerateKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	s, tbl := randomSpace(t, rng, 7)
	clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 7, Distance: D2{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || clusters[0].Size() != 7 {
		t.Errorf("k=n should give a single cluster, got %d clusters", len(clusters))
	}
}

func TestAgglomerateKTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s, tbl := randomSpace(t, rng, 5)
	if _, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 6, Distance: D2{}}); err == nil {
		t.Error("expected error for k > n")
	}
}

func TestAgglomerateNilDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s, tbl := randomSpace(t, rng, 5)
	if _, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 2}); err == nil {
		t.Error("expected error for nil distance")
	}
}

func TestAgglomerateKOne(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	s, tbl := randomSpace(t, rng, 9)
	clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 1, Distance: D2{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 9 {
		t.Errorf("k=1 should keep singletons, got %d clusters", len(clusters))
	}
	for _, c := range clusters {
		if c.Cost != 0 {
			t.Error("singleton cluster with nonzero cost")
		}
	}
}

func TestAgglomerateEmptyTable(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	s, tbl := randomSpace(t, rng, 0)
	clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 0, Distance: D2{}})
	if err != nil || clusters != nil {
		t.Errorf("empty table: %v, %v", clusters, err)
	}
}

// TestAgglomerateDeterminism runs each distance twice on the same input
// and requires the same clusters: closures and member lists alike.
func TestAgglomerateDeterminism(t *testing.T) {
	for _, dist := range []Distance{D1{}, D3{}} {
		rng1 := rand.New(rand.NewSource(61))
		s1, tbl1 := randomSpace(t, rng1, 50)
		c1, _, err := AgglomerateStatsCtx(nil, s1, tbl1, AggloOptions{K: 5, Distance: dist})
		if err != nil {
			t.Fatal(err)
		}
		rng2 := rand.New(rand.NewSource(61))
		s2, tbl2 := randomSpace(t, rng2, 50)
		c2, _, err := AgglomerateStatsCtx(nil, s2, tbl2, AggloOptions{K: 5, Distance: dist})
		if err != nil {
			t.Fatal(err)
		}
		if len(c1) != len(c2) {
			t.Fatalf("non-deterministic cluster count: %d vs %d", len(c1), len(c2))
		}
		for i := range c1 {
			if !c1[i].Closure.Equal(c2[i].Closure) {
				t.Fatalf("non-deterministic closure at cluster %d", i)
			}
			if !slices.Equal(c1[i].Members, c2[i].Members) {
				t.Fatalf("non-deterministic members at cluster %d: %v vs %v", i, c1[i].Members, c2[i].Members)
			}
		}
	}
}

func TestAgglomerateDiversityRipeness(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	s, tbl := randomSpace(t, rng, 40)
	sens := make([]int, tbl.Len())
	for i := range sens {
		sens[i] = rng.Intn(3)
	}
	const k, l = 3, 2
	for _, modified := range []bool{false, true} {
		clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{
			K: k, Distance: D3{}, Modified: modified,
			Constraints: []Constraint{DistinctLDiversity(l)}, Sensitive: sens,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkClustering(t, s, tbl, clusters, k)
		for ci, c := range clusters {
			distinct := make(map[int]bool)
			for _, i := range c.Members {
				distinct[sens[i]] = true
			}
			if len(distinct) < l {
				t.Errorf("modified=%v: cluster %d has %d distinct sensitive values, want ≥ %d",
					modified, ci, len(distinct), l)
			}
		}
	}
}

func TestAgglomerateDiversityValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	s, tbl := randomSpace(t, rng, 10)
	diverse2 := []Constraint{DistinctLDiversity(2)}
	if _, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 2, Distance: D3{}, Constraints: diverse2, Sensitive: []int{1}}); err == nil {
		t.Error("expected sensitive-length error")
	}
	uniform := make([]int, tbl.Len())
	if _, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 2, Distance: D3{}, Constraints: diverse2, Sensitive: uniform}); err == nil {
		t.Error("expected unattainable-diversity error")
	}
}

func TestAgglomerateDiversityWithKOne(t *testing.T) {
	// k=1 with a diversity requirement must still cluster (diversity is
	// the binding constraint).
	rng := rand.New(rand.NewSource(69))
	s, tbl := randomSpace(t, rng, 20)
	sens := make([]int, tbl.Len())
	for i := range sens {
		sens[i] = i % 2
	}
	clusters, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 1, Distance: D2{}, Constraints: []Constraint{DistinctLDiversity(2)}, Sensitive: sens})
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range clusters {
		distinct := make(map[int]bool)
		for _, i := range c.Members {
			distinct[sens[i]] = true
		}
		if len(distinct) < 2 {
			t.Errorf("cluster %d not diverse", ci)
		}
	}
}

// TestAgglomerateMatchesBruteForceNN checks the engine against the naive
// oracle on many small random tables, both algorithms: the lazy heap's
// selection, caches and healing must reproduce a full rescan at every
// step.
func TestAgglomerateMatchesBruteForceNN(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		s, tbl := randomSpace(t, rng, 24)
		for _, dist := range []Distance{D1{}, D2{}, D3{}, D4{}} {
			for _, modified := range []bool{false, true} {
				label := fmt.Sprintf("seed %d %s modified=%v", seed, dist.Name(), modified)
				assertMatchesOracle(t, label, s, tbl, AggloOptions{K: 3, Distance: dist, Modified: modified})
			}
		}
	}
}

// TestMergeLoopAllocatesNothingPerMerge pins the engine's allocation
// profile: its scratch — arena, lists, heap, anchor strips, price sums and
// the bound span functions — is allocated once per run, so a run at 2n
// records makes only the allocations its larger output needs. Each final
// cluster costs three (its members, its closure and the *Cluster), plus
// one regrow of its members when the absorb pass appended a leftover
// record (visible as spare capacity). Whatever is left must not depend on
// n: a per-pass make in a newborn pass or rescan would add one per merge.
func TestMergeLoopAllocatesNothingPerMerge(t *testing.T) {
	var rest [2]float64
	for x, n := range []int{100, 200} {
		s, tbl := randomSpace(t, rand.New(rand.NewSource(12)), n)
		var out []*Cluster
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if out, _, err = AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D3{}, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		made := 3 * len(out)
		for _, c := range out {
			if cap(c.Members) > len(c.Members) {
				made++
			}
		}
		rest[x] = allocs - float64(made)
	}
	if rest[0] != rest[1] {
		t.Errorf("%v allocations beyond the output at n=100, %v at n=200: the engine allocates per merge", rest[0], rest[1])
	}
}
