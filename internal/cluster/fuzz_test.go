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
		seq, seqErr := Agglomerate(s, tbl, opt)
		for _, w := range []int{2, 4} {
			opt.Workers = w
			par, parErr := Agglomerate(s, tbl, opt)
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

// FuzzDistKernelEquivalence pits the flat kernel's dist against the
// reference evaluation (per-attribute LCA walk + Distance.Eval through the
// interface) over random cluster pairs, for all five built-in distances:
// the results must be bit-equal float64s, both argument orders. It then
// replays the whole engine against the naive oracle on the same table.
func FuzzDistKernelEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x13, 0x24, 0x35, 0x46}, uint8(2), uint8(3))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0x01, 0x02, 0x03, 0x04}, uint8(5), uint8(2))
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 0x11, 0x22, 0x33, 0x44}, uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, split, kb uint8) {
		s := fuzzSpace(t)
		tbl, _ := fuzzTable(data)
		n := tbl.Len()
		if n < 2 {
			return
		}
		// Split the records into two non-empty member sets and build the
		// pair of clusters both paths will measure.
		cut := 1 + int(split)%(n-1)
		var ma, mb []int
		for i := 0; i < cut; i++ {
			ma = append(ma, i)
		}
		for i := cut; i < n; i++ {
			mb = append(mb, i)
		}
		ca, cb := s.NewCluster(tbl, ma), s.NewCluster(tbl, mb)
		r := s.NumAttrs()
		row := make([]int32, r)
		for _, d := range AllDistances() {
			// Reference: the per-attribute LCA walk plus Distance.Eval.
			sum := 0.0
			for j := 0; j < r; j++ {
				node := s.Hiers[j].LCA(ca.Closure[j], cb.Closure[j])
				sum += s.CostAt(j, node)
			}
			dU := sum / float64(r)
			want := d.Eval(ca.Size(), cb.Size(), ca.Size()+cb.Size(), ca.Cost, cb.Cost, dU)

			k := newKernel(s, d)
			k.reserve(2, n)
			for j, node := range ca.Closure {
				row[j] = int32(node)
			}
			k.addMerged(0, row, ca.Cost, ca.Size())
			for j, node := range cb.Closure {
				row[j] = int32(node)
			}
			k.addMerged(1, row, cb.Cost, cb.Size())
			if got := k.dist(0, 1); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: kernel dist = %v (%x), reference = %v (%x)",
					d.Name(), got, math.Float64bits(got), want, math.Float64bits(want))
			}
			// The reverse order too: NC is asymmetric, and the engine
			// evaluates both orientations across a run.
			sum = 0.0
			for j := 0; j < r; j++ {
				node := s.Hiers[j].LCA(cb.Closure[j], ca.Closure[j])
				sum += s.CostAt(j, node)
			}
			dU = sum / float64(r)
			want = d.Eval(cb.Size(), ca.Size(), cb.Size()+ca.Size(), cb.Cost, ca.Cost, dU)
			if got := k.dist(1, 0); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("%s: kernel dist(b,a) = %v, reference = %v", d.Name(), got, want)
			}
		}
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
		got, gotErr := Agglomerate(s, tbl, opt)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("oracle err=%v, engine err=%v", refErr, gotErr)
		}
		if refErr == nil {
			assertSameClustering(t, "engine vs oracle", ref, got)
		}
	})
}
