package core

import (
	"math/rand"
	"testing"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/datagen"
	"kanon/internal/loss"
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
