package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// initEngine readies an engine for a run over tbl up to its initial
// neighbour build: state prepared and every record pushed as a singleton.
// The caller closes it.
func initEngine(s *Space, tbl *table.Table, opt AggloOptions) *Engine {
	e := NewEngine(s, opt, tbl.Len())
	e.tbl = tbl
	e.prepare(tbl.Len())
	for i := 0; i < tbl.Len(); i++ {
		e.pushSingleton(i)
	}
	return e
}

// measureByName builds one of the loss measures over tbl.
func measureByName(t testing.TB, name string, tbl *table.Table, hiers []*hierarchy.Hierarchy) loss.Measure {
	t.Helper()
	switch name {
	case "entropy":
		m, err := loss.NewEntropy(tbl, hiers)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case "monotone-entropy":
		m, err := loss.NewMonotoneEntropy(tbl, hiers)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case "lm":
		return loss.NewLM(hiers)
	case "tree":
		return loss.NewTree(hiers)
	case "suppression":
		return loss.NewSuppression(hiers)
	}
	t.Fatalf("unknown measure %q", name)
	return nil
}

// duplicateAdult returns n ADT records drawn from its first n/20 tuples,
// so that most tuples repeat and distances tie heavily.
func duplicateAdult(n int) *datagen.Dataset {
	ds := datagen.Adult(n, 3)
	rng := rand.New(rand.NewSource(5))
	pool := max(n/20, 1)
	tbl := table.New(ds.Table.Schema)
	for i := 0; i < n; i++ {
		tbl.MustAppend(slices.Clone(ds.Table.Records[rng.Intn(pool)]))
	}
	ds.Table = tbl
	return ds
}

// TestNNInitTrieMatchesTiled calls both initial builders directly and
// requires every row list — entries, depth and discard bound — and the
// seeded heap to be identical, on ADT and on a table of duplicates, for
// every built-in distance and measure. Below the crossover it runs the
// whole matrix at k 2 and 10 and workers 1 and 4; above it (not in -short
// mode) each measure meets two distances, in turn, at workers 4. A space
// with an over-budget attribute, whose cost and envelope rows are walk-up
// fills, runs every distance.
func TestNNInitTrieMatchesTiled(t *testing.T) {
	dists := []Distance{D1{}, D2{}, D3{}, D4{}, NC{}}
	measures := []string{"entropy", "monotone-entropy", "lm", "tree", "suppression"}
	type leg struct {
		n       int
		ks      []int
		workers []int
		dists   func(m int) []Distance
	}
	legs := []leg{{300, []int{2, 10}, []int{1, 4}, func(int) []Distance { return dists }}}
	if !testing.Short() {
		legs = append(legs, leg{nnTrieRecords + 100, []int{10}, []int{4}, func(m int) []Distance {
			return []Distance{dists[m%len(dists)], dists[(m+2)%len(dists)]}
		}})
	}
	for _, lg := range legs {
		for _, data := range []string{"adt", "dups"} {
			ds := datagen.Adult(lg.n, 1)
			if data == "dups" {
				ds = duplicateAdult(lg.n)
			}
			for mi, mname := range measures {
				s, err := NewSpace(ds.Hiers, measureByName(t, mname, ds.Table, ds.Hiers))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range lg.dists(mi) {
					label := fmt.Sprintf("n=%d %s/%s %s", lg.n, data, mname, d.Name())
					checkInitLists(t, label, s, ds.Table, d, lg.ks, lg.workers)
				}
			}
		}
	}
	s, tbl := overBudgetSpace(t, rand.New(rand.NewSource(9)), 300)
	for _, d := range dists {
		checkInitLists(t, "over-budget "+d.Name(), s, tbl, d, []int{5}, []int{1, 4})
	}
}

// checkInitLists builds the initial lists of tbl under d with the tiled
// build and, at every k and worker count given, with the trie search, and
// fails unless every row list and the seeded heap agree and the trie
// search priced no more pairs.
func checkInitLists(t *testing.T, label string, s *Space, tbl *table.Table, d Distance, ks, workers []int) {
	t.Helper()
	n := tbl.Len()
	want := initEngine(s, tbl, AggloOptions{K: 2, Distance: d, Workers: 1})
	defer want.Close(nil)
	if err := want.buildNNTiled(n); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		for _, w := range workers {
			label := fmt.Sprintf("%s k=%d workers=%d", label, k, w)
			got := initEngine(s, tbl, AggloOptions{K: k, Distance: d, Workers: w})
			cmax, ok := got.kern.trieBound(n)
			if !ok {
				t.Fatalf("%s: the trie search refuses a built-in distance", label)
			}
			if err := got.buildNNTrie(n, cmax); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				w, g := &want.rowNN[i], &got.rowNN[i]
				if w.n != g.n || w.c != g.c || w.ubD != g.ubD || w.ubID != g.ubID ||
					!slices.Equal(w.d[:w.n], g.d[:g.n]) || !slices.Equal(w.id[:w.n], g.id[:g.n]) {
					t.Fatalf("%s: row %d is %v/%v ub (%v, %d), tiled %v/%v ub (%v, %d)", label, i,
						g.d[:g.n], g.id[:g.n], g.ubD, g.ubID, w.d[:w.n], w.id[:w.n], w.ubD, w.ubID)
				}
			}
			if !slices.Equal(want.nnHeap, got.nnHeap) {
				t.Fatalf("%s: seeded heaps differ", label)
			}
			if ev := got.distEvals.Load(); ev > want.distEvals.Load() {
				t.Errorf("%s: trie search priced %d pairs, tiled %d", label, ev, want.distEvals.Load())
			}
			got.Close(nil)
		}
	}
}

// scaledD3 is a user-supplied distance: the engine cannot know its
// monotonicity, so it must keep the tiled build.
type scaledD3 struct{}

func (scaledD3) Name() string { return "scaled-d3" }

func (scaledD3) Eval(sa, sb, su int, dA, dB, dU float64) float64 {
	return 2 * D3{}.Eval(sa, sb, su, dA, dB, dU)
}

// TestNNInitFallsBackToTiled checks the build's choice above the
// crossover: a custom Distance takes the tiled build (tiles scanned), the
// built-in distances the trie search (no tile); and below the crossover
// every distance takes the tiled build.
func TestNNInitFallsBackToTiled(t *testing.T) {
	for _, c := range []struct {
		n     int
		d     Distance
		tiled bool
	}{
		{nnTrieRecords, scaledD3{}, true},
		{nnTrieRecords, D4{}, false},
		{nnTrieRecords, D3{}, false},
		{nnTrieRecords - 1, D3{}, true},
	} {
		s, tbl := adultSpace(t, c.n)
		e := initEngine(s, tbl, AggloOptions{K: 10, Distance: c.d, Workers: 2})
		if err := e.buildNN(c.n); err != nil {
			t.Fatal(err)
		}
		if got := e.stats.TilesScanned > 0; got != c.tiled {
			t.Errorf("n=%d %s (%#v): tiled build %v, want %v", c.n, c.d.Name(), c.d, got, c.tiled)
		}
		e.Close(nil)
	}
}
