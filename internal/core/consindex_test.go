package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/datagen"
	"kanon/internal/table"
)

// checkConsIndex compares every query of x against pairwise
// Space.Consistent over the records of tbl and some random records.
func checkConsIndex(t *testing.T, label string, s *cluster.Space, x *consIndex, tbl *table.Table, g *table.GenTable, rng *rand.Rand) {
	t.Helper()
	n := g.Len()
	recs := slices.Clone(tbl.Records)
	for range 8 {
		r := make(table.Record, s.NumAttrs())
		for a, h := range s.Hiers {
			r[a] = rng.Intn(h.NumValues())
		}
		recs = append(recs, r)
	}
	for i, r := range recs {
		var want, missing []int
		for j, row := range g.Records {
			if s.Consistent(r, row) {
				want = append(want, j)
			} else {
				missing = append(missing, j)
			}
			if got := x.has(r, j); got != s.Consistent(r, row) {
				t.Fatalf("%s: has(record %d, row %d) = %v", label, i, j, got)
			}
		}
		mask := x.rowsOf(r)
		if got := appendSet(nil, mask); !slices.Equal(got, want) {
			t.Fatalf("%s: record %d consistent with rows %v, want %v", label, i, got, want)
		}
		if got := appendClear(nil, mask, n); !slices.Equal(got, missing) {
			t.Fatalf("%s: record %d inconsistent with rows %v, want %v", label, i, got, missing)
		}
		if got := count(mask); got != len(want) {
			t.Fatalf("%s: record %d count %d, want %d", label, i, got, len(want))
		}
	}
}

// TestConsIndex checks the consistency index at the word boundaries of its
// masks, on rows that start at the leaves, at the roots or in between, and
// after every one of a run of random widenings.
func TestConsIndex(t *testing.T) {
	for _, n := range []int{63, 64, 65, 129} {
		ds := datagen.Adult(n, int64(n))
		s := measureSpace(t, ds.Table, ds.Hiers, "lm")
		for _, start := range []string{"leaves", "roots", "mixed"} {
			rng := rand.New(rand.NewSource(int64(n)))
			g := table.NewGen(ds.Table.Schema, n)
			for j, rec := range ds.Table.Records {
				for a, h := range s.Hiers {
					switch {
					case start == "roots":
						g.Records[j][a] = h.Root()
					case start == "mixed" && rng.Intn(2) == 0 && rec[a] != h.Root():
						g.Records[j][a] = h.Parent(rec[a])
					default:
						g.Records[j][a] = rec[a]
					}
				}
			}
			x := newConsIndex(s, g)
			label := fmt.Sprintf("n=%d %s", n, start)
			checkConsIndex(t, label, s, x, ds.Table, g, rng)
			for step := range 12 {
				j := rng.Intn(n)
				x.widen(j, ds.Table.Records[rng.Intn(n)])
				checkConsIndex(t, fmt.Sprintf("%s widening %d (row %d)", label, step, j), s, x, ds.Table, g, rng)
			}
		}
	}
}
