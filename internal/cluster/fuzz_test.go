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
// structural invariants, the parallel clustering must equal the sequential
// one exactly, and the engine must equal the naive oracle (oracle_test.go)
// exactly — including under ℓ-diversity and t-closeness constraints (mode
// bits 2 and 4).
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
		ref, refErr := oracleAgglomerate(s, tbl, opt)
		if (seqErr == nil) != (refErr == nil) {
			t.Fatalf("engine err=%v, oracle err=%v", seqErr, refErr)
		}
		if seqErr != nil {
			return
		}
		assertSameClustering(t, "fuzz engine vs oracle", ref, seq)
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

// FuzzDistKernelEquivalence pits the flat kernel's strip pricing against
// the reference evaluation (per-attribute LCA walk + Distance.Eval through
// the interface) over random clusters, for all built-in distances: every
// anchor's strip prices one candidate, and an odd run of candidates that
// takes the two-at-a-time loop and its one-candidate tail, and each
// priced sum must give bit-equal float64s in both orientations, through
// evalSum and evalPair alike. The same clusters are priced on the fuzz
// space and, mapped onto it, on a space with an over-budget attribute
// whose cost rows are filled by walk-up. It then replays the whole engine
// against the naive oracle on the same table.
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
		// Split the records into two non-empty member sets, plus a third
		// set (the even records) overlapping both: three clusters, so every
		// anchor has two other candidates.
		cut := 1 + int(split)%(n-1)
		var sets [3][]int
		for i := 0; i < n; i++ {
			if i < cut {
				sets[0] = append(sets[0], i)
			} else {
				sets[1] = append(sets[1], i)
			}
			if i%2 == 0 {
				sets[2] = append(sets[2], i)
			}
		}
		checkStripPricing(t, "fuzz space", s, tbl, sets[:])
		wtbl := table.New(wempty.Schema)
		for _, rec := range tbl.Records {
			wtbl.MustAppend(table.Record{(rec[0]*4+rec[1])*65 + rec[2]*31, rec[1]})
		}
		checkStripPricing(t, "over-budget space", ws, wtbl, sets[:])

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

// checkStripPricing builds one cluster per member set in a kernel arena and
// checks, for every distance and every anchor, that strip pricing gives
// the reference distance bit for bit in both orientations.
func checkStripPricing(t *testing.T, label string, s *Space, tbl *table.Table, sets [][]int) {
	t.Helper()
	r := s.NumAttrs()
	cls := make([]*Cluster, len(sets))
	for c, m := range sets {
		cls[c] = s.NewCluster(tbl, m)
	}
	ref := func(d Distance, a, b *Cluster) float64 {
		sum := 0.0
		for j := 0; j < r; j++ {
			sum += s.CostAt(j, s.Hiers[j].LCA(a.Closure[j], b.Closure[j]))
		}
		return d.Eval(a.Size(), b.Size(), a.Size()+b.Size(), a.Cost, b.Cost, sum/float64(r))
	}
	same := func(got, want float64) bool {
		return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
	}
	row := make([]int32, r)
	for _, d := range AllDistances() {
		k := newKernel(s, d)
		k.reserve(len(cls), tbl.Len())
		for id, c := range cls {
			for j, node := range c.Closure {
				row[j] = int32(node)
			}
			k.addMerged(id, row, c.Cost, c.Size())
		}
		strip := make([]float64, k.stripLen())
		for a := range cls {
			var others []int32
			for b := range cls {
				if b != a {
					others = append(others, int32(b))
				}
			}
			k.loadStrip(strip, a)
			// One candidate alone, then an odd run: pairs plus the tail.
			for _, cands := range [][]int32{others[:1], append(append(others, others...), others[0])} {
				sums := make([]float64, len(cands))
				k.price(strip, cands, sums)
				for q, b32 := range cands {
					b := int(b32)
					wantAB, wantBA := ref(d, cls[a], cls[b]), ref(d, cls[b], cls[a])
					gotAB, gotBA := k.evalPair(a, b, sums[q])
					if !same(gotAB, wantAB) || !same(k.evalSum(a, b, sums[q]), wantAB) {
						t.Errorf("%s %s: %d candidates, dist(%d, %d) = %v (%x), reference %v (%x)",
							label, d.Name(), len(cands), a, b, gotAB, math.Float64bits(gotAB), wantAB, math.Float64bits(wantAB))
					}
					if !same(gotBA, wantBA) || !same(k.evalSum(b, a, sums[q]), wantBA) {
						t.Errorf("%s %s: %d candidates, dist(%d, %d) = %v, reference %v",
							label, d.Name(), len(cands), b, a, gotBA, wantBA)
					}
				}
			}
		}
	}
}
