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

// checkRecordMasks compares x.recordsOf on every row of g and on some
// random generalized rows against pairwise Space.Consistent over the
// records of tbl.
func checkRecordMasks(t *testing.T, label string, s *cluster.Space, x *recordMasks, tbl *table.Table, g *table.GenTable, rng *rand.Rand) {
	t.Helper()
	rows := slices.Clone(g.Records)
	for range 8 {
		row := make(table.GenRecord, s.NumAttrs())
		for a, h := range s.Hiers {
			row[a] = rng.Intn(h.NumNodes())
		}
		rows = append(rows, row)
	}
	for j, row := range rows {
		var want []int
		for u, r := range tbl.Records {
			if s.Consistent(r, row) {
				want = append(want, u)
			}
		}
		if got := appendSet(nil, x.recordsOf(row)); !slices.Equal(got, want) {
			t.Fatalf("%s: row %d %v consistent with records %v, want %v", label, j, row, got, want)
		}
	}
}

// TestConsIndex checks the consistency index and the static masks over the
// originals at the word boundaries of their masks, on rows that start at
// the leaves, at the roots or in between, and after every one of a run of
// random widenings.
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
			orig := newRecordMasks(s, ds.Table)
			label := fmt.Sprintf("n=%d %s", n, start)
			checkConsIndex(t, label, s, x, ds.Table, g, rng)
			checkRecordMasks(t, label, s, orig, ds.Table, g, rng)
			for step := range 12 {
				j := rng.Intn(n)
				x.widen(j, ds.Table.Records[rng.Intn(n)])
				l := fmt.Sprintf("%s widening %d (row %d)", label, step, j)
				checkConsIndex(t, l, s, x, ds.Table, g, rng)
				checkRecordMasks(t, l, s, orig, ds.Table, g, rng)
			}
		}
	}
}

// checkRowClasses requires cl to partition the rows of g exactly by tuple:
// each live class lists its rows in ascending order, every row once, all
// of the class's tuple, no two live classes share a tuple, and the empty
// classes are the free ones.
func checkRowClasses(t *testing.T, label string, s *cluster.Space, cl *rowClasses, g *table.GenTable) {
	t.Helper()
	r := s.NumAttrs()
	seen := make([]bool, g.Len())
	tuples := map[string]int{}
	for c, h := range cl.head {
		if h < 0 {
			if !slices.Contains(cl.free, int32(c)) {
				t.Fatalf("%s: empty class %d is not free", label, c)
			}
			continue
		}
		key := fmt.Sprint(cl.tuple[c*r : (c+1)*r])
		if d, dup := tuples[key]; dup {
			t.Fatalf("%s: classes %d and %d share a tuple", label, d, c)
		}
		tuples[key] = c
		for j, prev := h, int32(-1); j >= 0; prev, j = j, cl.next[j] {
			if j <= prev || seen[j] || cl.of[j] != int32(c) {
				t.Fatalf("%s: class %d lists row %d after %d (seen %v, of %d)", label, c, j, prev, seen[j], cl.of[j])
			}
			seen[j] = true
			for a, x := range g.Records[j] {
				if int(cl.tuple[c*r+a]) != cl.off[a]+x {
					t.Fatalf("%s: row %d is %v, its class %d is not", label, j, g.Records[j], c)
				}
			}
		}
	}
	for j, ok := range seen {
		if !ok {
			t.Fatalf("%s: row %d in no class", label, j)
		}
	}
}

// TestRowClasses runs Algorithm 5's widenings at random on ADT rows and
// checks the class layer after each deficient record: the partition stays
// exact, and a class's price is costRows.widenDelta of its tuple, bit for
// bit.
func TestRowClasses(t *testing.T) {
	for _, n := range []int{63, 129} {
		ds := datagen.Adult(n, int64(n))
		s := measureSpace(t, ds.Table, ds.Hiers, "entropy")
		rng := rand.New(rand.NewSource(int64(n)))
		g := table.NewGen(ds.Table.Schema, n)
		for j, rec := range ds.Table.Records {
			copy(g.Records[j], ds.Table.Records[rng.Intn(n)])
			widen(s, g.Records[j], rec)
		}
		cl := newRowClasses(s, g)
		checkRowClasses(t, fmt.Sprintf("n=%d", n), s, cl, g)
		rows := newCostRows(s)
		for step := range 40 {
			ri := ds.Table.Records[rng.Intn(n)]
			cl.load(ri)
			rows.load(ri)
			for c, h := range cl.head {
				if h < 0 {
					continue
				}
				gj := g.Records[h]
				if got, want := cl.price(c), rows.widenDelta(gj, gj); got != want {
					t.Fatalf("n=%d step %d: class %d priced %v, widenDelta %v", n, step, c, got, want)
				}
			}
			var near, far []int
			for j, row := range g.Records {
				if s.Consistent(ri, row) {
					near = append(near, j)
				} else {
					far = append(far, j)
				}
			}
			rng.Shuffle(len(far), func(a, b int) { far[a], far[b] = far[b], far[a] })
			for _, j := range far[:min(len(far), 1+rng.Intn(4))] {
				widen(s, g.Records[j], ri)
				cl.move(j, g, near)
				near = append(near, j)
			}
			checkRowClasses(t, fmt.Sprintf("n=%d step %d", n, step), s, cl, g)
		}
	}
}
