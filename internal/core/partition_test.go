package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/datagen"
	"kanon/internal/loss"
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
	// With MaxChunk ≥ n the partitioned variant degenerates to Algorithm 1.
	rng1 := rand.New(rand.NewSource(51))
	s1, tbl1 := testSpace(t, rng1, 60, "lm")
	gP, _, _, err := KAnonymizePartitionedReportCtx(nil, s1, tbl1, PartitionedOptions{K: 4, MaxChunk: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	gA, _, _, err := KAnonymizeStatsCtx(nil, s1, tbl1, cluster.AggloOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range gP.Records {
		if !gP.Records[i].Equal(gA.Records[i]) {
			t.Fatalf("record %d differs from plain agglomerative", i)
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
	gA, _, _, err := KAnonymizeStatsCtx(nil, s, ds.Table, cluster.AggloOptions{K: k})
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
