package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// assertSameClustering fails unless the two clusterings are identical:
// same cluster count, and cluster-by-cluster the same members (in order),
// closures and cached costs.
func assertSameClustering(t *testing.T, label string, want, got []*Cluster) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d clusters, want %d", label, len(got), len(want))
	}
	for ci := range want {
		w, g := want[ci], got[ci]
		if len(w.Members) != len(g.Members) {
			t.Fatalf("%s: cluster %d has %d members, want %d", label, ci, len(g.Members), len(w.Members))
		}
		for mi := range w.Members {
			if w.Members[mi] != g.Members[mi] {
				t.Fatalf("%s: cluster %d member %d is %d, want %d", label, ci, mi, g.Members[mi], w.Members[mi])
			}
		}
		if !slices.Equal(w.Closure, g.Closure) {
			t.Fatalf("%s: cluster %d closure differs", label, ci)
		}
		if w.Cost != g.Cost {
			t.Fatalf("%s: cluster %d cost %v, want %v", label, ci, g.Cost, w.Cost)
		}
	}
}

// equivalenceSizes is the n sweep of the parallel-vs-sequential matrix.
// The n=1000 leg dominates the package's test time; -short drops it.
func equivalenceSizes(t *testing.T) []int {
	if testing.Short() {
		return []int{50, 200}
	}
	return []int{50, 200, 1000}
}

var equivalenceWorkers = []int{2, 4, 8}

// TestParallelEquivalenceBasic runs the full equivalence matrix for the
// basic engine (Algorithm 1): for every table size, every paper distance
// and every k, the parallel engine at 2, 4 and 8 workers must return the
// exact clustering of the sequential engine.
func TestParallelEquivalenceBasic(t *testing.T) {
	testParallelEquivalence(t, false)
}

// TestParallelEquivalenceModified is the same matrix through the
// Algorithm 2 (Modified) path, whose shrink/re-seed step exercises
// mid-merge arena growth.
func TestParallelEquivalenceModified(t *testing.T) {
	testParallelEquivalence(t, true)
}

func testParallelEquivalence(t *testing.T, modified bool) {
	for _, n := range equivalenceSizes(t) {
		s, tbl := randomSpace(t, rand.New(rand.NewSource(int64(7000+n))), n)
		for _, dist := range PaperDistances() {
			for _, k := range []int{2, 5, 10} {
				opt := AggloOptions{K: k, Distance: dist, Modified: modified, Workers: 1}
				seq, _, err := AgglomerateStatsCtx(nil, s, tbl, opt)
				if err != nil {
					t.Fatalf("n=%d %s k=%d: %v", n, dist.Name(), k, err)
				}
				checkClustering(t, s, tbl, seq, k)
				for _, w := range equivalenceWorkers {
					opt.Workers = w
					par, _, err := AgglomerateStatsCtx(nil, s, tbl, opt)
					if err != nil {
						t.Fatalf("n=%d %s k=%d workers=%d: %v", n, dist.Name(), k, w, err)
					}
					label := fmt.Sprintf("n=%d %s k=%d modified=%v workers=%d", n, dist.Name(), k, modified, w)
					assertSameClustering(t, label, seq, par)
				}
			}
		}
	}
}

// TestParallelEquivalenceMinDiversity runs the matrix through the
// ℓ-diversity ripeness path, which gates merges on sensitive-value counts
// and (under Modified) skips diversity-breaking evictions.
func TestParallelEquivalenceMinDiversity(t *testing.T) {
	for _, n := range []int{50, 200} {
		rng := rand.New(rand.NewSource(int64(8000 + n)))
		s, tbl := randomSpace(t, rng, n)
		sens := make([]int, n)
		for i := range sens {
			sens[i] = rng.Intn(3)
		}
		for _, dist := range PaperDistances() {
			for _, k := range []int{2, 5, 10} {
				for _, modified := range []bool{false, true} {
					opt := AggloOptions{
						K: k, Distance: dist, Modified: modified,
						Constraints: []Constraint{DistinctLDiversity(2)}, Sensitive: sens, Workers: 1,
					}
					seq, _, err := AgglomerateStatsCtx(nil, s, tbl, opt)
					if err != nil {
						t.Fatalf("n=%d %s k=%d modified=%v: %v", n, dist.Name(), k, modified, err)
					}
					for _, w := range equivalenceWorkers {
						opt.Workers = w
						par, _, err := AgglomerateStatsCtx(nil, s, tbl, opt)
						if err != nil {
							t.Fatalf("n=%d %s k=%d modified=%v workers=%d: %v", n, dist.Name(), k, modified, w, err)
						}
						label := fmt.Sprintf("n=%d %s k=%d modified=%v l=2 workers=%d", n, dist.Name(), k, modified, w)
						assertSameClustering(t, label, seq, par)
					}
				}
			}
		}
	}
}

// TestAgglomerateStatsCounters sanity-checks the engine's work counters:
// the distance-evaluation count is worker-invariant, merges are counted,
// and the initial build alone costs n·(n−1) evals.
func TestAgglomerateStatsCounters(t *testing.T) {
	const n = 120
	s, tbl := randomSpace(t, rand.New(rand.NewSource(90)), n)
	_, seqStats, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D3{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.DistEvals < int64(n)*int64(n-1) {
		t.Errorf("DistEvals = %d, want ≥ n(n−1) = %d from the initial build", seqStats.DistEvals, n*(n-1))
	}
	if seqStats.Merges == 0 {
		t.Error("Merges = 0")
	}
	for _, w := range []int{2, 4} {
		_, parStats, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D3{}, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if parStats.DistEvals != seqStats.DistEvals {
			t.Errorf("workers=%d: DistEvals = %d, sequential did %d — work must be worker-invariant",
				w, parStats.DistEvals, seqStats.DistEvals)
		}
		if parStats.Merges != seqStats.Merges {
			t.Errorf("workers=%d: Merges = %d, sequential did %d", w, parStats.Merges, seqStats.Merges)
		}
		if parStats.HeapPushes != seqStats.HeapPushes {
			t.Errorf("workers=%d: HeapPushes = %d, sequential did %d", w, parStats.HeapPushes, seqStats.HeapPushes)
		}
		if parStats.StalePops != seqStats.StalePops {
			t.Errorf("workers=%d: StalePops = %d, sequential did %d", w, parStats.StalePops, seqStats.StalePops)
		}
		if parStats.DeadNNRescans != seqStats.DeadNNRescans {
			t.Errorf("workers=%d: DeadNNRescans = %d, sequential did %d", w, parStats.DeadNNRescans, seqStats.DeadNNRescans)
		}
		if parStats.TilesScanned != seqStats.TilesScanned {
			t.Errorf("workers=%d: TilesScanned = %d, sequential did %d", w, parStats.TilesScanned, seqStats.TilesScanned)
		}
	}
	// The lazy heap's counters must be live, and the initial seed alone
	// pushes one entry per record.
	if seqStats.HeapPushes < int64(n) {
		t.Errorf("HeapPushes = %d, want ≥ n = %d from the initial seed", seqStats.HeapPushes, n)
	}
	if seqStats.TilesScanned == 0 {
		t.Error("TilesScanned = 0 on the lazy path")
	}
}

// TestTrieInitCountersWorkerInvariant runs the engine above the crossover,
// where the initial lists come from the trie search and the newborn passes
// search the live singletons, at workers 1 and 4: the clusterings and
// every observed counter must agree, the searches' cluster.init.bound_sums
// and cluster.merge.bound_sums and every other cluster.merge.* counter
// included, and the initial scans must have priced fewer than the
// n·(n−1) ordered pairs the tiled build evaluates.
func TestTrieInitCountersWorkerInvariant(t *testing.T) {
	n := nnTrieRecords
	s, tbl := adultSpace(t, n)
	var base obs.RunStats
	var seq []*Cluster
	for _, w := range []int{1, 4} {
		met := obs.NewMetrics()
		got, st, err := AgglomerateStatsCtx(obs.With(context.Background(), met), s, tbl, AggloOptions{K: 10, Distance: D3{}, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		snap := met.Snapshot()
		if w == 1 {
			base, seq = snap, got
			for _, name := range []string{obs.CounterInitBoundSums, obs.CounterMergeBoundSums} {
				if snap.Counter(name) == 0 {
					t.Fatalf("no %s: the run did not take the trie searches", name)
				}
			}
			if ev := snap.Counter(PhaseInit + ".scan_evals"); ev <= 0 || ev >= int64(n)*int64(n-1) {
				t.Errorf("%s.scan_evals = %d, want in (0, n(n−1) = %d)", PhaseInit, ev, n*(n-1))
			}
			if st.DistEvals != snap.Counter("cluster.dist_evals") {
				t.Errorf("DistEvals %d, observed %d", st.DistEvals, snap.Counter("cluster.dist_evals"))
			}
			continue
		}
		assertSameClustering(t, fmt.Sprintf("workers=%d", w), seq, got)
		merge := 0
		for name, v := range base.Counters {
			if strings.HasPrefix(name, PhaseMerge+".") {
				merge++
				if snap.Counters[name] != v {
					t.Errorf("workers=%d: %s = %d, sequential %d", w, name, snap.Counters[name], v)
				}
			}
		}
		if merge != 3 {
			t.Errorf("%d %s.* counters, want scans, scan_evals and bound_sums", merge, PhaseMerge)
		}
		if !reflect.DeepEqual(snap.Counters, base.Counters) {
			t.Errorf("workers=%d: counters differ from the sequential run:\n  seq: %v\n  got: %v", w, base.Counters, snap.Counters)
		}
	}
}

// TestParallelEquivalenceADT repeats the equivalence check on the richer
// benchmark schema used by the benchmarks (8 attributes, deep interval
// hierarchies) rather than the 3-attribute random table, at one
// representative configuration per distance.
func TestParallelEquivalenceADT(t *testing.T) {
	if testing.Short() {
		t.Skip("ADT equivalence leg skipped in -short mode")
	}
	s, tbl := adultSpace(t, 400)
	for _, dist := range PaperDistances() {
		opt := AggloOptions{K: 10, Distance: dist, Workers: 1}
		seq, _, err := AgglomerateStatsCtx(nil, s, tbl, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range equivalenceWorkers {
			opt.Workers = w
			par, _, err := AgglomerateStatsCtx(nil, s, tbl, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameClustering(t, fmt.Sprintf("ADT %s workers=%d", dist.Name(), w), seq, par)
		}
	}
}

// adultSpace builds the ADT benchmark dataset and an entropy-measure space
// for it, mirroring benchSpace without the *testing.B receiver.
func adultSpace(t *testing.T, n int) (*Space, *table.Table) {
	t.Helper()
	ds := datagen.Adult(n, 1)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	return s, ds.Table
}
