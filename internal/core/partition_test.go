package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/table"
)

func TestPartitionedPostcondition(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, maxChunk := range []int{16, 64, 1 << 20} {
		s, tbl := testSpace(t, rng, 120, "entropy")
		const k = 5
		g, clusters, _, err := KAnonymizePartitionedReportCtx(nil, s, tbl, PartitionedOptions{K: k, MaxChunk: maxChunk})
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.IsKAnonymous(g, k) {
			t.Errorf("maxChunk=%d: not k-anonymous", maxChunk)
		}
		if !anonymity.IsGeneralizationOf(s, tbl, g) {
			t.Errorf("maxChunk=%d: not positional", maxChunk)
		}
		seen := make([]bool, tbl.Len())
		for _, c := range clusters {
			if c.Size() < k {
				t.Errorf("maxChunk=%d: cluster of size %d", maxChunk, c.Size())
			}
			for _, i := range c.Members {
				if seen[i] {
					t.Errorf("maxChunk=%d: record %d in two clusters", maxChunk, i)
				}
				seen[i] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("maxChunk=%d: record %d unclustered", maxChunk, i)
			}
		}
	}
}

func TestPartitionedHugeChunkEqualsPlain(t *testing.T) {
	// With MaxChunk ≥ n the partitioned variant degenerates to Algorithm 1:
	// the same clusters, and the same engine counters, since its engine is
	// sized by the one chunk it runs, not by MaxChunk. A MaxChunk far past
	// any table (up to MaxInt) must neither allocate for it nor overflow.
	rng1 := rand.New(rand.NewSource(51))
	s1, tbl1 := testSpace(t, rng1, 60, "lm")
	var gA *table.GenTable
	plain, err := observe(func(ctx context.Context) (err error) {
		gA, err = KAnonymizeCtx(ctx, s1, tbl1, cluster.AggloOptions{K: 4})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, maxChunk := range []int{1 << 20, 1 << 40, math.MaxInt} {
		var gP *table.GenTable
		part, err := observe(func(ctx context.Context) (err error) {
			gP, _, _, err = KAnonymizePartitionedReportCtx(ctx, s1, tbl1, PartitionedOptions{K: 4, MaxChunk: maxChunk})
			return err
		})
		if err != nil {
			t.Fatalf("MaxChunk=%d: %v", maxChunk, err)
		}
		for i := range gP.Records {
			if !slices.Equal(gP.Records[i], gA.Records[i]) {
				t.Fatalf("MaxChunk=%d: record %d differs from plain agglomerative", maxChunk, i)
			}
		}
		for _, c := range []string{"cluster.dist_evals", obs.CounterDeadNNRescans, obs.CounterTilesScanned} {
			if got, want := part.Counter(c), plain.Counter(c); got != want {
				t.Errorf("MaxChunk=%d: %s = %d, plain %d", maxChunk, c, got, want)
			}
		}
	}
}

func TestPartitionedUtilityPenaltyBounded(t *testing.T) {
	// Chunked clustering pays a utility penalty, but it must stay modest.
	ds := datagen.Adult(600, 52)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	gP, _, _, err := KAnonymizePartitionedReportCtx(nil, s, ds.Table, PartitionedOptions{K: k, MaxChunk: 100})
	if err != nil {
		t.Fatal(err)
	}
	gA, err := KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	lp, la := loss.TableLoss(em, gP), loss.TableLoss(em, gA)
	if lp > la*1.35+1e-9 {
		t.Errorf("partitioned loss %.4f more than 35%% above plain %.4f", lp, la)
	}
}

func TestPartitionedScales(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability check skipped in -short")
	}
	ds := datagen.Adult(8000, 53)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	g, _, _, err := KAnonymizePartitionedReportCtx(nil, s, ds.Table, PartitionedOptions{K: 10, MaxChunk: 400})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !anonymity.IsKAnonymous(g, 10) {
		t.Error("not k-anonymous")
	}
	// Plain agglomerative takes ~25s on this size; partitioned must be
	// drastically faster. Generous bound to avoid CI flakiness.
	if elapsed > 20*time.Second {
		t.Errorf("partitioned run took %v", elapsed)
	}
}

func TestPartitionedGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s, tbl := testSpace(t, rng, 10, "lm")
	if _, _, _, err := KAnonymizePartitionedReportCtx(nil, s, tbl, PartitionedOptions{K: 0}); err == nil {
		t.Error("expected k < 1 error")
	}
	if _, _, _, err := KAnonymizePartitionedReportCtx(nil, s, tbl, PartitionedOptions{K: 11}); err == nil {
		t.Error("expected k > n error")
	}
	// Tiny MaxChunk is clamped to 2k and still works.
	g, _, _, err := KAnonymizePartitionedReportCtx(nil, s, tbl, PartitionedOptions{K: 3, MaxChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsKAnonymous(g, 3) {
		t.Error("clamped chunk run not k-anonymous")
	}
}

func TestFoldSmall(t *testing.T) {
	// Two viable groups, one undersized group folded into the smaller.
	groups := [][]int{{1, 2, 3}, {4}, {5, 6, 7, 8}, {}}
	parts := foldSmall(groups, 2)
	if len(parts) != 2 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += len(p)
		if len(p) < 2 {
			t.Errorf("part of size %d below k", len(p))
		}
	}
	if total != 8 {
		t.Errorf("records lost: %d of 8", total)
	}
	// All undersized: collapse to one part.
	if got := foldSmall([][]int{{1}, {2}}, 3); len(got) != 1 || len(got[0]) != 2 {
		t.Errorf("collapse = %v", got)
	}
	// Smalls together reach k: they become their own part.
	if got := foldSmall([][]int{{1, 2, 3}, {4}, {5}}, 2); len(got) != 2 {
		t.Errorf("smalls-combined = %v", got)
	}
}

// refBestSplit is the per-record bestSplit the production one replaced,
// kept as its oracle: it folds LCA over every record, walks every record's
// leaf up to the closure's child and looks that child up in a map.
func refBestSplit(s *cluster.Space, tbl *table.Table, records []int, k int) [][]int {
	var best [][]int
	bestMax := len(records) + 1
	for j, h := range s.Hiers {
		// Closure node of the chunk on attribute j.
		node := h.LeafOf(tbl.Records[records[0]][j])
		for _, i := range records[1:] {
			node = h.LCA(node, h.LeafOf(tbl.Records[i][j]))
		}
		children := h.Children(node)
		if len(children) < 2 {
			continue
		}
		childIdx := make(map[int]int, len(children))
		for ci, c := range children {
			childIdx[c] = ci
		}
		groups := make([][]int, len(children))
		ok := true
		for _, i := range records {
			leaf := h.LeafOf(tbl.Records[i][j])
			// Walk up to the child of node covering this leaf.
			u := leaf
			for h.Parent(u) != node {
				u = h.Parent(u)
				if u < 0 {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			groups[childIdx[u]] = append(groups[childIdx[u]], i)
		}
		if !ok {
			continue
		}
		parts := foldSmall(groups, k)
		if len(parts) < 2 {
			continue
		}
		maxPart := 0
		for _, p := range parts {
			if len(p) > maxPart {
				maxPart = len(p)
			}
		}
		if maxPart < bestMax {
			bestMax = maxPart
			best = parts
		}
	}
	return best
}

// refPartitionRecords is partitionRecords over refBestSplit.
func refPartitionRecords(s *cluster.Space, tbl *table.Table, records []int, k, maxChunk int) [][]int {
	if len(records) <= maxChunk {
		return [][]int{records}
	}
	parts := refBestSplit(s, tbl, records, k)
	if parts == nil {
		return [][]int{records}
	}
	var out [][]int
	for _, p := range parts {
		out = append(out, refPartitionRecords(s, tbl, p, k, maxChunk)...)
	}
	return out
}

// TestPartitionMatchesPerRecordSplit checks that the per-distinct-value
// split yields exactly the chunks of the per-record oracle, in order, on
// ADT and ART at several (k, maxChunk) pairs.
func TestPartitionMatchesPerRecordSplit(t *testing.T) {
	for _, ds := range []*datagen.Dataset{datagen.Adult(4000, 61), datagen.ART(4000, 62)} {
		s, err := cluster.NewSpace(ds.Hiers, loss.NewLM(ds.Hiers))
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, ds.Table.Len())
		for i := range all {
			all[i] = i
		}
		for _, kc := range [][2]int{{2, 8}, {3, 40}, {5, 100}, {10, 500}, {25, 1000}} {
			k, maxChunk := kc[0], kc[1]
			t.Run(fmt.Sprintf("%s/k=%d/max=%d", ds.Name, k, maxChunk), func(t *testing.T) {
				got := partitionRecords(s, ds.Table, all, k, maxChunk)
				want := refPartitionRecords(s, ds.Table, all, k, maxChunk)
				if len(want) < 2 {
					t.Fatalf("oracle made %d chunks: the case does not split", len(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d chunks, oracle %d; chunks differ", len(got), len(want))
				}
			})
		}
	}
}

// splitCase builds a table of two attributes over six values each from the
// given (a, b) pairs: a's hierarchy has the children {0,1,2} and {3,4,5},
// b's the children {0,1}, {2,3} and {4,5}.
func splitCase(t *testing.T, pairs [][2]int) (*cluster.Space, *table.Table) {
	t.Helper()
	vals := []string{"0", "1", "2", "3", "4", "5"}
	tbl := table.New(table.MustSchema(table.MustAttribute("a", vals), table.MustAttribute("b", vals)))
	for _, p := range pairs {
		tbl.MustAppend(table.Record{p[0], p[1]})
	}
	ha := hierarchy.MustFromSubsets(6, []hierarchy.Subset{{Values: []int{0, 1, 2}}, {Values: []int{3, 4, 5}}}, "*")
	hb := hierarchy.MustFromSubsets(6, []hierarchy.Subset{{Values: []int{0, 1}}, {Values: []int{2, 3}}, {Values: []int{4, 5}}}, "*")
	hiers := []*hierarchy.Hierarchy{ha, hb}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// TestBestSplitEdgeCases checks the count-scored split against the
// per-record oracle where the scores tie and where leftovers fold.
func TestBestSplitEdgeCases(t *testing.T) {
	all := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	t.Run("tie on the largest part", func(t *testing.T) {
		// a splits 6 | 6, b splits 6 | 3 | 3: both largest parts hold six
		// records, and the first attribute wins.
		var pairs [][2]int
		for i := 0; i < 12; i++ {
			pairs = append(pairs, [2]int{(i % 2) * 3, []int{0, 0, 2, 4}[i%4]})
		}
		s, tbl := splitCase(t, pairs)
		got := newSplitter(s, tbl, 3, 6).bestSplit(all(12))
		want := refBestSplit(s, tbl, all(12), 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split %v, oracle %v", got, want)
		}
		for _, p := range got {
			for _, i := range p {
				if tbl.Records[i][0]/3 != tbl.Records[p[0]][0]/3 {
					t.Fatalf("split %v is not attribute a's", got)
				}
			}
		}
	})
	t.Run("leftovers attach to the smallest part", func(t *testing.T) {
		// a groups the records 6, 4 and 2 (by leaf), b 5, 5 and 2 (by
		// pair). At k=3 the two leftovers join the smallest part: a folds
		// to 6 | 6 and b to 5 | 7, so a wins; counting the leftovers as a
		// part of their own would score b at 5 and pick it.
		var pairs [][2]int
		for i := 0; i < 12; i++ {
			a, b := 0, 0
			switch {
			case i >= 10:
				a = 2
			case i >= 6:
				a = 1
			}
			switch {
			case i >= 10:
				b = 4
			case i >= 5:
				b = 2
			}
			pairs = append(pairs, [2]int{a, b})
		}
		s, tbl := splitCase(t, pairs)
		got := newSplitter(s, tbl, 3, 6).bestSplit(all(12))
		want := refBestSplit(s, tbl, all(12), 3)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split %v, oracle %v", got, want)
		}
		if len(got) != 2 || !reflect.DeepEqual(got[0], []int{6, 7, 8, 9, 10, 11}) {
			t.Fatalf("split %v, want a's leaves 1 and 2 folded into one part", got)
		}
		for _, c := range []struct {
			sizes    []int
			max      int
			twoParts bool
		}{
			{[]int{6, 4, 2}, 6, true},
			{[]int{5, 5, 2}, 7, true},
			{[]int{7, 4, 1}, 7, true},
			{[]int{4, 1}, 5, false},    // one part of four plus a leftover is one part
			{[]int{2, 2, 0}, 4, false}, // two leftovers reaching k are one part
		} {
			if m, ok := foldedMax(c.sizes, 3); m != c.max || ok != c.twoParts {
				t.Errorf("foldedMax(%v, 3) = %d, %v; want %d, %v", c.sizes, m, ok, c.max, c.twoParts)
			}
		}
	})
}

// TestPartitionedTwinsMatchFreshEngine runs the partitioned pipeline with a
// small MaxChunk on ADT tables of repeating tuples, where each shard's
// engine prices pairs of distinct tuples and keeps the pair-sum rows of
// the repeated ones: for Algorithms 1 and 2 under every built-in distance
// and the entropy, LM and suppression measures, at workers 1 and 4, every
// shard's clusters must be those of a fresh engine run on the shard's
// records alone (the engine tests pin such runs to the naive oracle), so
// no tuple-class state of one shard reaches the next.
func TestPartitionedTwinsMatchFreshEngine(t *testing.T) {
	base := datagen.Adult(300, 3)
	rng := rand.New(rand.NewSource(8))
	tbl := table.New(base.Table.Schema)
	for range 300 {
		tbl.MustAppend(slices.Clone(base.Table.Records[rng.Intn(40)]))
	}
	for _, mname := range []string{"entropy", "lm", "suppression"} {
		var m loss.Measure
		switch mname {
		case "entropy":
			em, err := loss.NewEntropy(tbl, base.Hiers)
			if err != nil {
				t.Fatal(err)
			}
			m = em
		case "lm":
			m = loss.NewLM(base.Hiers)
		default:
			m = loss.NewSuppression(base.Hiers)
		}
		s, err := cluster.NewSpace(base.Hiers, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, modified := range []bool{false, true} {
			for _, d := range []cluster.Distance{cluster.D1{}, cluster.D2{}, cluster.D3{}, cluster.D4{}, cluster.NC{}} {
				for _, w := range []int{1, 4} {
					label := fmt.Sprintf("%s %s modified=%v workers=%d", mname, d.Name(), modified, w)
					_, got, chunks, err := KAnonymizePartitionedReportCtx(nil, s, tbl, PartitionedOptions{
						K: 5, Distance: d, Modified: modified, MaxChunk: 40, Workers: w,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					var want []*cluster.Cluster
					for _, chunk := range chunks {
						sub := table.New(tbl.Schema)
						for _, gi := range chunk {
							sub.Records = append(sub.Records, tbl.Records[gi])
						}
						cs, _, err := cluster.AgglomerateStatsCtx(nil, s, sub, cluster.AggloOptions{K: 5, Distance: d, Modified: modified, Workers: 1})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for _, c := range cs {
							for mi, local := range c.Members {
								c.Members[mi] = chunk[local]
							}
						}
						want = append(want, cs...)
					}
					if len(chunks) < 2 || len(got) != len(want) {
						t.Fatalf("%s: %d chunks, %d clusters, fresh engines %d", label, len(chunks), len(got), len(want))
					}
					for i := range want {
						if !slices.Equal(got[i].Members, want[i].Members) || !slices.Equal(got[i].Closure, want[i].Closure) ||
							math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
							t.Fatalf("%s: cluster %d is %v, fresh engine %v", label, i, got[i].Members, want[i].Members)
						}
					}
				}
			}
		}
	}
}
