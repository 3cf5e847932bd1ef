package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/obs"
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
			if !slices.Equal(c1[i].Closure, c2[i].Closure) {
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
// profile: its scratch — arena, lists, heap, anchor strips, price sums,
// the bound span functions and, above the crossover, the singleton index
// and its frontier — is allocated once per run, so a larger run makes only
// the allocations its larger output needs. Each final cluster costs three
// (its members, its closure and the *Cluster), plus one regrow of its
// members when the absorb pass appended a leftover record (visible as
// spare capacity). Whatever is left must not depend on n: a per-pass make
// in a newborn pass or rescan would add one per merge. The flat newborn
// passes run at n=100 and 200, and on ADT tuples that repeat (the tiled
// build on tuple classes, with kept pair-sum rows that the twin merges'
// passes read) at n=200 and 400; the split ones at nnTrieRecords and 500
// more (~450 more merges).
//
// AllocsPerRun counts the mallocs of the whole process, and a binary that
// links net makes about two on every GC cycle (the unique package's
// cleanup of net/netip's zone map, on its own goroutine). The number of
// cycles in a run follows the GC pacing, which varies with the load on the
// host, so the collector is off while the test counts: the counts are then
// exact, where with it on they were seen to differ by one at n=3000.
func TestMergeLoopAllocatesNothingPerMerge(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	flat := func(n int) (*Space, *table.Table) { return randomSpace(t, rand.New(rand.NewSource(12)), n) }
	split := func(n int) (*Space, *table.Table) { return adultSpace(t, n) }
	dups := func(n int) (*Space, *table.Table) {
		ds := duplicateAdult(n)
		s, err := NewSpace(ds.Hiers, measureByName(t, "entropy", ds.Table, ds.Hiers))
		if err != nil {
			t.Fatal(err)
		}
		return s, ds.Table
	}
	for _, leg := range []struct {
		space func(int) (*Space, *table.Table)
		ns    [2]int
		runs  int
	}{{flat, [2]int{100, 200}, 5}, {dups, [2]int{200, 400}, 5}, {split, [2]int{nnTrieRecords, nnTrieRecords + 500}, 3}} {
		var rest [2]float64
		for x, n := range leg.ns {
			s, tbl := leg.space(n)
			var out []*Cluster
			allocs := testing.AllocsPerRun(leg.runs, func() {
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
			t.Errorf("%v allocations beyond the output at n=%d, %v at n=%d: the engine allocates per merge", rest[0], leg.ns[0], rest[1], leg.ns[1])
		}
	}
}

// TestEngineReuseMatchesFresh runs one Engine over tables that grow and
// shrink, as the shards of a partitioned run do, and requires every run to
// give a fresh engine's clustering, work counters and observed counters
// and peaks: no state of a run
// may leak into the next. A warm engine then allocates, beyond its output,
// two objects per run at any table size.
func TestEngineReuseMatchesFresh(t *testing.T) {
	s, all := adultSpace(t, 600)
	sub := func(lo, hi int) *table.Table {
		tb := table.New(all.Schema)
		tb.Records = all.Records[lo:hi]
		return tb
	}
	tables := []*table.Table{sub(0, 300), sub(300, 420), sub(0, 600), sub(550, 600)}
	for _, modified := range []bool{false, true} {
		opt := AggloOptions{K: 5, Distance: D3{}, Modified: modified, Workers: 2}
		// Made for fewer records than two of the tables hold: those runs
		// grow the state, and the runs after them keep it.
		e := NewEngine(s, opt, 150)
		for i, tb := range tables {
			label := fmt.Sprintf("modified=%v run %d (n=%d)", modified, i, tb.Len())
			gotMet := obs.NewMetrics()
			got, gotSt, err := e.Run(obs.With(context.Background(), gotMet), tb)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fresh := NewEngine(s, opt, tb.Len())
			fresh.depth = e.depth
			wantMet := obs.NewMetrics()
			want, wantSt, err := fresh.Run(obs.With(context.Background(), wantMet), tb)
			fresh.Close(nil)
			if err != nil {
				t.Fatalf("%s fresh: %v", label, err)
			}
			assertSameClustering(t, label, want, got)
			if gotSt != wantSt {
				t.Errorf("%s: counters %+v, fresh engine %+v", label, gotSt, wantSt)
			}
			g, w := gotMet.Snapshot(), wantMet.Snapshot()
			if !reflect.DeepEqual(g.Counters, w.Counters) || !reflect.DeepEqual(g.Peaks, w.Peaks) {
				t.Errorf("%s: observed counters %v and peaks %v, fresh engine %v and %v", label, g.Counters, g.Peaks, w.Counters, w.Peaks)
			}
		}
		e.Close(nil)
	}

	e := NewEngine(s, AggloOptions{K: 5, Distance: D3{}, Workers: 1}, all.Len())
	defer e.Close(nil)
	var rest [2]float64
	for x, tb := range []*table.Table{tables[1], tables[2]} {
		if _, _, err := e.Run(nil, tb); err != nil {
			t.Fatal(err)
		}
		var out []*Cluster
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if out, _, err = e.Run(nil, tb); err != nil {
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
	// The two are the output slice and the initial build's span function.
	if rest[0] != rest[1] || rest[0] > 2 {
		t.Errorf("a warm engine allocates %v objects beyond the output at n=120, %v at n=600; want the same ≤ 2", rest[0], rest[1])
	}
}
