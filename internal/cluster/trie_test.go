package cluster

import (
	"fmt"
	"math"
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
// seeded heap to be identical, on ADT, on a table of duplicates and on one
// whose every tuple repeats at least k = 10 times, more than a list's
// depth + 1 (the tiled build offers no more of a tuple's records), for
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
		for _, data := range []string{"adt", "dups", "repeated"} {
			ds := datagen.Adult(lg.n, 1)
			switch data {
			case "dups":
				ds = duplicateAdult(lg.n)
			case "repeated":
				ds = repeatedAdult(lg.n/11, 10)
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
// search priced no more pairs than a scan of every ordered record pair.
// (The tiled build prices pairs of distinct tuples, which on a table of
// duplicates can be far fewer.)
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
			if ev := got.distEvals.Load(); ev > int64(n)*int64(n-1) {
				t.Errorf("%s: trie search priced %d pairs, more than the n(n−1) = %d of an all-pairs scan", label, ev, n*(n-1))
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

// TestNewbornTrieMatchesFlat drives the merge loop of two engines in the
// same state, one without a singleton index and one with it, and calls the
// flat newborn pass on the first and the split pass on the second for
// every newborn: the row and column lists, their discard bounds, the
// selected pairs and the heaps after the pushes must stay identical. It
// runs every built-in distance under entropy (non-monotone: its envelope
// is not its cost), LM and monotone entropy, on ADT and a table of
// duplicates, for Algorithms 1 and 2 with and without recursive (4, 2)
// diversity. At n=300 (below the crossover, where the index is built only
// by calling the trie search directly) the whole matrix runs at workers 1
// and 4. Above the crossover (not in -short mode) each pair of table and
// measure meets one distance and one variant of the algorithm, both in
// turn, at workers 4; constrained Algorithm 2, whose flat passes take
// seconds there, stops after 1000 merges.
func TestNewbornTrieMatchesFlat(t *testing.T) {
	dists := []Distance{D1{}, D2{}, D3{}, D4{}, NC{}}
	measures := []string{"entropy", "lm", "monotone-entropy"}
	type variant struct{ modified, cons bool }
	variants := []variant{{false, false}, {true, false}, {false, true}, {true, true}}
	type leg struct {
		n       int
		workers []int
		// each returns the distances and variants run on the i-th pair of
		// table and measure.
		each func(i int) ([]Distance, []variant)
	}
	legs := []leg{{300, []int{1, 4}, func(int) ([]Distance, []variant) { return dists, variants }}}
	if !testing.Short() {
		legs = append(legs, leg{nnTrieRecords + 100, []int{4}, func(i int) ([]Distance, []variant) {
			return dists[i%len(dists) : i%len(dists)+1], variants[i%len(variants) : i%len(variants)+1]
		}})
	}
	for _, lg := range legs {
		i := 0
		for _, data := range []string{"adt", "dups"} {
			ds := datagen.Adult(lg.n, 1)
			if data == "dups" {
				ds = duplicateAdult(lg.n)
			}
			for _, mname := range measures {
				s, err := NewSpace(ds.Hiers, measureByName(t, mname, ds.Table, ds.Hiers))
				if err != nil {
					t.Fatal(err)
				}
				dl, vl := lg.each(i)
				i++
				for _, d := range dl {
					for _, v := range vl {
						for _, w := range lg.workers {
							opt := AggloOptions{K: 10, Distance: d, Modified: v.modified, Workers: w}
							merges := -1
							if v.cons {
								opt.Constraints = []Constraint{RecursiveCL(4, 2)}
								opt.Sensitive = ds.Sensitive
								if v.modified && lg.n > 1000 {
									merges = 1000
								}
							}
							label := fmt.Sprintf("n=%d %s/%s %s modified=%v recursive=%v workers=%d",
								lg.n, data, mname, d.Name(), v.modified, v.cons, w)
							checkNewbornPasses(t, label, s, ds.Table, opt, merges)
						}
					}
				}
			}
		}
	}
}

// bindEngine readies an engine for a run over tbl up to its initial build,
// as initEngine does, with opt's constraints bound as Run binds them.
func bindEngine(t testing.TB, s *Space, tbl *table.Table, opt AggloOptions) *Engine {
	t.Helper()
	e := initEngine(s, tbl, opt)
	for _, c := range opt.Constraints {
		b, err := c.Bind(opt.Sensitive)
		if err != nil {
			t.Fatal(err)
		}
		e.cons = append(e.cons, b)
		e.guardAbsorb = e.guardAbsorb || !b.AdditionSafe()
	}
	return e
}

// checkNewbornPasses builds the initial lists of tbl twice, tiled (no
// index) and by the trie search (which leaves the singleton index), and
// then merges both engines in lockstep for at most maxMerges merges (all
// of them when negative): every merge must select the same pair and bear
// the same newborns, whose flat and split passes must leave identical
// lists, and the heaps must be identical after the newborns' pushes. The
// index itself is checked against the live singletons every 64 merges and
// at the end.
func checkNewbornPasses(t *testing.T, label string, s *Space, tbl *table.Table, opt AggloOptions, maxMerges int) {
	t.Helper()
	n := tbl.Len()
	want := bindEngine(t, s, tbl, opt)
	defer want.Close(nil)
	if err := want.buildNNTiled(n); err != nil {
		t.Fatal(err)
	}
	got := bindEngine(t, s, tbl, opt)
	defer got.Close(nil)
	cmax, ok := got.kern.trieBound(n)
	if !ok {
		t.Fatalf("%s: the trie search refuses a built-in distance", label)
	}
	if err := got.buildNNTrie(n, cmax); err != nil {
		t.Fatal(err)
	}
	var wAdded, gAdded []int
	for step := 0; want.nLive > 1 && step != maxMerges; step++ {
		a, b := want.selectPairHeap()
		if ga, gb := got.selectPairHeap(); ga != a || gb != b {
			t.Fatalf("%s merge %d: the split engine selects (%d, %d), the flat one (%d, %d)", label, step, ga, gb, a, b)
		}
		if a < 0 {
			break
		}
		wAdded = want.merge(a, b, wAdded[:0])
		gAdded = got.merge(a, b, gAdded[:0])
		if !slices.Equal(wAdded, gAdded) {
			t.Fatalf("%s merge %d: newborns %v, flat engine %v", label, step, gAdded, wAdded)
		}
		for _, nb := range wAdded {
			want.newbornPrice(nb, want.liveList)
			got.newbornSplit(nb)
			for _, l := range []struct {
				kind string
				w, g *nnList
			}{{"row", &want.rowNN[nb], &got.rowNN[nb]}, {"column", &want.colNN[nb], &got.colNN[nb]}} {
				w, g := l.w, l.g
				if w.n != g.n || w.c != g.c || w.ubD != g.ubD || w.ubID != g.ubID ||
					!slices.Equal(w.d[:w.n], g.d[:g.n]) || !slices.Equal(w.id[:w.n], g.id[:g.n]) {
					t.Fatalf("%s merge %d: newborn %d's %s list is %v/%v ub (%v, %d), flat %v/%v ub (%v, %d)",
						label, step, nb, l.kind, g.d[:g.n], g.id[:g.n], g.ubD, g.ubID, w.d[:w.n], w.id[:w.n], w.ubD, w.ubID)
				}
			}
			for _, e := range []*Engine{want, got} {
				e.pushRowHead(nb)
				e.pushColHead(nb)
			}
		}
		want.heapMaybeCompact()
		got.heapMaybeCompact()
		if !slices.Equal(want.nnHeap, got.nnHeap) {
			t.Fatalf("%s merge %d: heaps differ", label, step)
		}
		if step%64 == 0 {
			checkSingletonIndex(t, label, got)
		}
	}
	checkSingletonIndex(t, label, got)
}

// checkSingletonIndex recounts the engine's singleton index from its live
// clusters: every node's live count and live-first record and child
// order, the ids at the live positions, and the merged list.
func checkSingletonIndex(t *testing.T, label string, e *Engine) {
	t.Helper()
	x := e.idx
	tr := x.t
	sid := make(map[int32]int32) // record → live singleton id
	merged := 0
	for _, id := range e.liveList {
		if e.kern.size[id] == 1 {
			sid[e.mHead[id]] = id
		} else {
			merged++
			if x.merged[x.pos[id]] != id {
				t.Fatalf("%s: merged cluster %d not at its place %d", label, id, x.pos[id])
			}
		}
	}
	if merged != len(x.merged) {
		t.Fatalf("%s: %d merged clusters indexed, %d live", label, len(x.merged), merged)
	}
	for u := len(tr.nodes) - 1; u >= 0; u-- {
		nd := tr.nodes[u]
		live := int32(0)
		if int(nd.depth) == tr.depth {
			for p := nd.lo; p < nd.hi; p++ {
				id, ok := sid[tr.recs[p]]
				if ok != (p < nd.lo+x.live[u]) || ok && x.ids[p] != id {
					t.Fatalf("%s: leaf %d position %d (record %d) is out of place", label, u, p, tr.recs[p])
				}
				if ok {
					live++
				}
			}
		} else {
			for q, c := range x.order[nd.kid:nd.end] {
				if (x.live[c] > 0) != (int32(q) < x.kids[u]) || x.up[c] != int32(u) || x.slot[c] != nd.kid+int32(q) {
					t.Fatalf("%s: child %d of node %d is out of place", label, c, u)
				}
				live += x.live[c]
			}
		}
		if live != x.live[u] {
			t.Fatalf("%s: node %d counts %d live singletons, holds %d", label, u, x.live[u], live)
		}
	}
}

// TestTrieLimitMatchesBisection checks trieLimit's galloping search
// against a plain bisection over the float bit patterns, for every
// built-in distance over random sizes, costs and discard bounds (negative
// ones included, which d1, d2, d3 and nc can reach).
func TestTrieLimitMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s, _ := adultSpace(t, 50)
	for _, d := range AllDistances() {
		k := newKernel(s, d)
		k.reserve(1, 2000)
		fr := float64(k.r)
		for it := 0; it < 2000; it++ {
			sa, sb := 1+rng.Intn(900), 1+rng.Intn(900)
			ca, cb := rng.Float64()*3, rng.Float64()*3
			ub := (rng.Float64() - 0.3) * math.Pow(10, float64(rng.Intn(7)-3))
			fits := func(s float64) bool { return k.eval(sa, sb, sa+sb, ca, cb, s/fr) <= ub }
			want := -1.0
			if fits(0) {
				lo, hi := uint64(0), math.Float64bits(math.Inf(1))
				if fits(math.Inf(1)) {
					lo = hi
				}
				for hi-lo > 1 {
					if mid := lo + (hi-lo)/2; fits(math.Float64frombits(mid)) {
						lo = mid
					} else {
						hi = mid
					}
				}
				want = math.Float64frombits(lo)
			}
			if got := k.trieLimit(sa, sb, ca, cb, ub); got != want {
				t.Fatalf("%s f(%d, %d, %v, %v) ≤ %v: trieLimit %v, bisection %v", d.Name(), sa, sb, ca, cb, ub, got, want)
			}
		}
	}
}

// repeatedAdult returns a table of ADT tuples in which every tuple repeats
// at least k times: tuples tuples of Adult(n, 4), the i-th taken k + i%3
// times, in a shuffled order, with the sensitive values of the records
// they were drawn in place of.
func repeatedAdult(tuples, k int) *datagen.Dataset {
	ds := datagen.Adult(tuples*(k+2), 4)
	tbl := table.New(ds.Table.Schema)
	for i := 0; i < tuples; i++ {
		for range k + i%3 {
			tbl.MustAppend(slices.Clone(ds.Table.Records[i]))
		}
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(tbl.Len(), func(i, j int) { tbl.Records[i], tbl.Records[j] = tbl.Records[j], tbl.Records[i] })
	ds.Table, ds.Sensitive = tbl, ds.Sensitive[:tbl.Len()]
	return ds
}

// twinTables are the duplicate-heavy tables the tuple-class tests run on:
// duplicateAdult, whose tuples repeat a random number of times, and
// repeatedAdult, whose tuples all repeat at least k = 10 times.
func twinTables() map[string]*datagen.Dataset {
	return map[string]*datagen.Dataset{"dups": duplicateAdult(200), "repeated": repeatedAdult(14, 10)}
}

// TestTwinsMatchOracle runs the engine against the naive oracle on tables
// of duplicate tuples, where the tiled build prices each pair of distinct
// tuples once and the passes anchored on a duplicated tuple read its kept
// pair-sum row: Algorithms 1 and 2 under every built-in distance and the
// entropy, LM and suppression measures, and under recursive (4, 2)
// diversity and 0.3-closeness, at workers 1 and 4 and both depths (in
// -short mode under entropy only). One engine then runs over windows of
// the tables that grow and shrink, as the shards of a partitioned run do,
// each checked against the oracle.
func TestTwinsMatchOracle(t *testing.T) {
	dists := []Distance{D1{}, D2{}, D3{}, D4{}, NC{}}
	measures := []string{"entropy", "lm", "suppression"}
	if testing.Short() {
		measures = measures[:1]
	}
	for _, data := range []string{"dups", "repeated"} {
		ds := twinTables()[data]
		for _, mname := range measures {
			s, err := NewSpace(ds.Hiers, measureByName(t, mname, ds.Table, ds.Hiers))
			if err != nil {
				t.Fatal(err)
			}
			for _, modified := range []bool{false, true} {
				for _, d := range dists {
					label := fmt.Sprintf("%s/%s %s modified=%v", data, mname, d.Name(), modified)
					assertMatchesOracle(t, label, s, ds.Table, AggloOptions{K: 10, Distance: d, Modified: modified})
				}
				if mname != "entropy" {
					continue
				}
				for _, c := range []Constraint{RecursiveCL(4, 2), TCloseness(0.3)} {
					label := fmt.Sprintf("%s/%s %s modified=%v", data, mname, c, modified)
					assertMatchesOracle(t, label, s, ds.Table, AggloOptions{
						K: 10, Distance: D3{}, Modified: modified, Constraints: []Constraint{c}, Sensitive: ds.Sensitive,
					})
				}
			}
		}
	}
	ds := twinTables()["dups"]
	s, err := NewSpace(ds.Hiers, measureByName(t, "entropy", ds.Table, ds.Hiers))
	if err != nil {
		t.Fatal(err)
	}
	for _, modified := range []bool{false, true} {
		opt := AggloOptions{K: 5, Distance: D3{}, Modified: modified, Workers: 2}
		e := NewEngine(s, opt, 120)
		for _, w := range [][2]int{{0, 80}, {80, 200}, {40, 70}, {0, 120}} {
			tbl := table.New(ds.Table.Schema)
			tbl.Records = ds.Table.Records[w[0]:w[1]]
			want, err := oracleAgglomerate(s, tbl, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := e.Run(nil, tbl)
			if err != nil {
				t.Fatal(err)
			}
			assertSameClustering(t, fmt.Sprintf("reused engine modified=%v records [%d, %d)", modified, w[0], w[1]), want, got)
		}
		e.Close(nil)
	}
}
