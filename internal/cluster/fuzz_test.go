package cluster

import (
	"math"
	"testing"

	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// fuzzSpace is the fixed 3-attribute space of randomSpace, shared by every
// fuzz invocation (the hierarchies are immutable).
func fuzzSpace(t *testing.T) *Space {
	t.Helper()
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
	return s
}

// fuzzTable decodes a table of at most 32 records from raw bytes: two bytes
// per record choose the three attribute values and a sensitive value.
func fuzzTable(data []byte) (*table.Table, []int) {
	schema := table.MustSchema(
		table.MustAttribute("a", []string{"0", "1", "2", "3", "4", "5", "6", "7"}),
		table.MustAttribute("b", []string{"x", "y", "z", "w"}),
		table.MustAttribute("c", []string{"p", "q"}),
	)
	tbl := table.New(schema)
	var sensitive []int
	n := len(data) / 2
	if n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		b0, b1 := data[2*i], data[2*i+1]
		tbl.MustAppend(table.Record{int(b0 % 8), int(b0 / 8 % 4), int(b1 % 2)})
		sensitive = append(sensitive, int(b1/2%4))
	}
	return tbl, sensitive
}

// FuzzAgglomerate drives the engine over small random tables: whatever the
// input, the engine must not panic, must either reject the options
// identically at every worker count or return a clustering satisfying the
// structural invariants, the parallel clustering and the one with the full
// neighbour-cache depth must equal the sequential one exactly, and the
// engine must equal the naive oracle (oracle_test.go)
// exactly — including under ℓ-diversity and t-closeness constraints (mode
// bits 2 and 4) — and the trie-searched initial lists must equal the tiled
// build's.
func FuzzAgglomerate(f *testing.F) {
	f.Add([]byte{0x00}, uint8(2), uint8(0), uint8(0))
	f.Add([]byte{0x01, 0x02, 0x13, 0x24, 0x35, 0x46, 0x57, 0x68, 0x79, 0x8a}, uint8(3), uint8(2), uint8(1))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0x01, 0x02, 0x03, 0x04}, uint8(2), uint8(3), uint8(3))
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0x11, 0x22, 0x33, 0x44}, uint8(4), uint8(1), uint8(2))
	f.Add([]byte{0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe, 0x21, 0x43}, uint8(5), uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kb, distSel, mode uint8) {
		s := fuzzSpace(t)
		tbl, sensitive := fuzzTable(data)
		dists := AllDistances()
		opt := AggloOptions{
			K:        int(kb%34) - 1, // −1..32: exercises the k<0, k=0 and k>n rejections too
			Distance: dists[int(distSel)%len(dists)],
			Modified: mode&1 != 0,
			Workers:  1,
		}
		minDiv := 0
		if mode&2 != 0 {
			minDiv = 2
			opt.Constraints = []Constraint{DistinctLDiversity(minDiv)}
			opt.Sensitive = sensitive
		}
		if mode&4 != 0 {
			opt.Constraints = append(opt.Constraints, TCloseness(0.5))
			opt.Sensitive = sensitive
		}
		seq, _, seqErr := AgglomerateStatsCtx(nil, s, tbl, opt)
		for _, w := range []int{2, 4} {
			opt.Workers = w
			par, _, parErr := AgglomerateStatsCtx(nil, s, tbl, opt)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("workers=%d: sequential err=%v, parallel err=%v", w, seqErr, parErr)
			}
			if seqErr != nil {
				continue
			}
			assertSameClustering(t, "fuzz", seq, par)
		}
		// The fuzz tables are small enough for the shallow depth; the
		// full one must cluster the same.
		opt.Workers = 1
		deep, _, deepErr := runAtDepth(s, tbl, opt, nnListCap)
		if (seqErr == nil) != (deepErr == nil) {
			t.Fatalf("depth=%d: err=%v, sequential err=%v", nnListCap, deepErr, seqErr)
		}
		if seqErr == nil {
			assertSameClustering(t, "fuzz deep", seq, deep)
		}
		ref, refErr := oracleAgglomerate(s, tbl, opt)
		if (seqErr == nil) != (refErr == nil) {
			t.Fatalf("engine err=%v, oracle err=%v", seqErr, refErr)
		}
		if seqErr != nil {
			return
		}
		assertSameClustering(t, "fuzz engine vs oracle", ref, seq)
		// The tables are below the crossover; the trie search, called
		// directly, must build the tiled build's lists.
		if tbl.Len() >= 2 {
			checkInitLists(t, "fuzz trie", s, tbl, opt.Distance, []int{2}, []int{1, 2})
		}
		minSize := opt.K
		if minSize < 1 {
			minSize = 1
		}
		checkClustering(t, s, tbl, seq, minSize)
		if minDiv > 1 {
			for ci, c := range seq {
				distinct := make(map[int]bool)
				for _, i := range c.Members {
					distinct[sensitive[i]] = true
				}
				if len(distinct) < minDiv {
					t.Errorf("cluster %d has %d distinct sensitive values, want ≥ %d", ci, len(distinct), minDiv)
				}
			}
		}
	})
}

// FuzzDistKernelEquivalence pits the flat kernel's pair passes against the
// reference evaluation (per-attribute LCA walk + Distance.Eval through the
// interface) over random clusters, for every built-in distance and a
// user-supplied one: every anchor's strip prices runs of 1 to 9
// candidates, which take the four-wide loop and every tail length, and the
// offer helpers of the initial build, the newborn pass and the rescan must
// hand their lists bit-equal float64s in both orientations. The same
// clusters are priced on the fuzz space and, mapped onto it, on a space
// with an over-budget attribute whose cost rows are filled by walk-up. It
// then replays the whole engine against the naive oracle on the same
// table.
func FuzzDistKernelEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x13, 0x24, 0x35, 0x46}, uint8(2), uint8(3))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0x01, 0x02, 0x03, 0x04}, uint8(5), uint8(2))
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0x11, 0x22, 0x33, 0x44}, uint8(1), uint8(7))
	// The over-budget space is immutable and slow to build: share it.
	ws, wempty := overBudgetSpace(f, nil, 0)
	f.Fuzz(func(t *testing.T, data []byte, split, kb uint8) {
		s := fuzzSpace(t)
		tbl, _ := fuzzTable(data)
		n := tbl.Len()
		if n < 2 {
			return
		}
		// Ten overlapping windows of the records, of varying start and
		// length: every anchor has nine other clusters as candidates.
		sets := make([][]int, 10)
		for c := range sets {
			start, size := c*(1+int(split)), 1+(c+int(split))%n
			for i := 0; i < size; i++ {
				sets[c] = append(sets[c], (start+i)%n)
			}
		}
		checkStripPricing(t, "fuzz space", s, tbl, sets)
		wtbl := table.New(wempty.Schema)
		for _, rec := range tbl.Records {
			wtbl.MustAppend(table.Record{(rec[0]*4+rec[1])*65 + rec[2]*31, rec[1]})
		}
		checkStripPricing(t, "over-budget space", ws, wtbl, sets)

		// Whole-engine replay: the engine must reproduce the oracle's
		// clustering on the same input, both algorithms.
		dists := AllDistances()
		opt := AggloOptions{
			K:        1 + int(kb)%n,
			Distance: dists[int(split)%len(dists)],
			Modified: kb&1 != 0,
			Workers:  1,
		}
		ref, refErr := oracleAgglomerate(s, tbl, opt)
		got, _, gotErr := AgglomerateStatsCtx(nil, s, tbl, opt)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("oracle err=%v, engine err=%v", refErr, gotErr)
		}
		if refErr == nil {
			assertSameClustering(t, "engine vs oracle", ref, got)
		}
	})
}

// skewDist is a user-supplied distance, asymmetric in every argument, that
// the kernel evaluates through the interface.
type skewDist struct{}

func (skewDist) Name() string { return "skew" }
func (skewDist) Eval(sa, sb, su int, dA, dB, dU float64) float64 {
	return float64(su)*dU - float64(sa)*dA*dA + dB/float64(2*sb+1)
}

// checkStripPricing builds one cluster per member set in a kernel arena and
// checks, for every distance and every anchor, that every run of 1 to
// len(sets)−1 candidates priced against the anchor's strip gives, through
// each pass's offer helper, the reference distance bit for bit in both
// orientations.
func checkStripPricing(t *testing.T, label string, s *Space, tbl *table.Table, sets [][]int) {
	t.Helper()
	r := s.NumAttrs()
	cls := make([]*Cluster, len(sets))
	total := 0
	for c, m := range sets {
		cls[c] = s.NewCluster(tbl, m)
		total += len(m)
	}
	ref := func(d Distance, a, b *Cluster) float64 {
		sum := 0.0
		for j := 0; j < r; j++ {
			sum += s.CostAt(j, s.Hiers[j].LCA(a.Closure[j], b.Closure[j]))
		}
		return d.Eval(a.Size(), b.Size(), a.Size()+b.Size(), a.Cost, b.Cost, sum/float64(r))
	}
	// lookup returns the distance l holds for id, in its entries or its
	// discard bound (a window of depth+1 overflows a list by one).
	lookup := func(l *nnList, id int32) (float64, bool) {
		for i := int32(0); i < l.n; i++ {
			if l.id[i] == id {
				return l.d[i], true
			}
		}
		return l.ubD, l.ubID == id && !math.IsInf(l.ubD, 1)
	}
	dists := append(append([]Distance{}, AllDistances()...), skewDist{})
	row := make([]int32, r)
	for _, d := range dists {
		k := newKernel(s, d)
		// Overlapping member sets can union past the record count: size the
		// log table for the largest possible union.
		k.reserve(len(cls), total)
		for id, c := range cls {
			for j, node := range c.Closure {
				row[j] = int32(node)
			}
			k.addMerged(id, row, c.Cost, c.Size())
		}
		check := func(pass string, a, b int, l *nnList, key int32, want float64) {
			t.Helper()
			got, ok := lookup(l, key)
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %s %s: dist(%d, %d) = %v (%x, found %v), reference %v (%x)",
					label, d.Name(), pass, a, b, got, math.Float64bits(got), ok, want, math.Float64bits(want))
			}
		}
		strip := make([]float64, k.stripLen())
		sums := make([]float64, len(cls))
		for a := range cls {
			k.loadStrip(strip, a)
			var others []int32
			for b := range cls {
				if b != a {
					others = append(others, int32(b))
				}
			}
			// The offer helpers run at both depths an engine uses; the
			// shallow one splits the longer runs into several windows.
			for _, depth := range []int32{nnShallowDepth, nnListCap} {
				w := int(depth) + 1
				for run := 1; run <= len(others); run++ {
					cands := others[:run]
					// One price call per run, so the four-wide loop and every
					// tail stay covered. The priced sums go to fresh lists in
					// windows of at most depth+1 candidates: a list keeps depth
					// of them and its discard bound the last one, so every
					// value can be read back.
					k.price(strip, cands, sums)
					for lo := 0; lo < run; lo += w {
						win := cands[lo:min(lo+w, run)]
						wsums := sums[lo : lo+len(win)]
						var rowL, colL, fwd, rev nnList
						rowL.reset(depth)
						colL.reset(depth)
						fwd.reset(depth)
						rev.reset(depth)
						wantNew := int64(0)
						for _, b := range win {
							if int(b) < a {
								wantNew += 2
							}
						}
						if got := k.offerNewborn(a, win, wsums, &rowL, &colL); got != wantNew {
							t.Errorf("%s %s: offerNewborn counted %d evaluations, want %d", label, d.Name(), got, wantNew)
						}
						if got := k.offerRescan(a, win, wsums, &fwd, false) + k.offerRescan(a, win, wsums, &rev, true); got != 2*int64(len(win)) {
							t.Errorf("%s %s: offerRescan counted %d evaluations, want %d", label, d.Name(), got, 2*len(win))
						}
						for _, b32 := range win {
							b := int(b32)
							wantAB, wantBA := ref(d, cls[a], cls[b]), ref(d, cls[b], cls[a])
							check("rescan", a, b, &fwd, b32, wantAB)
							check("rescan", b, a, &rev, b32, wantBA)
							if b < a {
								check("newborn", a, b, &rowL, b32, wantAB)
								check("newborn", b, a, &colL, b32, wantBA)
							} else if _, ok := lookup(&rowL, b32); ok {
								t.Errorf("%s %s: newborn pass of %d offered %d", label, d.Name(), a, b)
							}
						}
					}
				}
				// The initial build offers consecutive ids: those below the
				// anchor, then those above it, each span priced in one call and
				// offered in windows as above.
				cols := make([]nnList, len(cls))
				for i := range cols {
					cols[i].reset(depth)
				}
				for _, span := range [][2]int{{0, a}, {a + 1, len(cls)}} {
					lo, hi := span[0], span[1]
					if lo == hi {
						continue
					}
					ids := make([]int32, 0, hi-lo)
					for b := lo; b < hi; b++ {
						ids = append(ids, int32(b))
					}
					k.price(strip, ids, sums)
					for wlo := lo; wlo < hi; wlo += w {
						whi := min(wlo+w, hi)
						var buildRow nnList
						buildRow.reset(depth)
						if got := k.offerBuild(a, wlo, sums[wlo-lo:whi-lo], &buildRow, cols[wlo:whi]); got != 2*int64(whi-wlo) {
							t.Errorf("%s %s: offerBuild counted %d evaluations, want %d", label, d.Name(), got, 2*(whi-wlo))
						}
						for b := wlo; b < whi; b++ {
							check("build", a, b, &buildRow, int32(b), ref(d, cls[a], cls[b]))
						}
					}
				}
				for b := range cls {
					if b != a {
						check("build", b, a, &cols[b], int32(a), ref(d, cls[b], cls[a]))
					}
				}
			}
		}
	}
}
