package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// kernelEquivalenceN sizes the engine-vs-oracle matrix; the full size
// dominates the test's runtime, so -short trims it.
func kernelEquivalenceN(t *testing.T) int {
	if testing.Short() {
		return 120
	}
	return 300
}

// TestKernelEquivalenceMatrix is the engine's central acceptance check:
// for every built-in distance, both algorithms and workers {1, 4}, the
// engine must produce the naive oracle's clustering — same clusters,
// members, closures and bit-equal float64 costs.
func TestKernelEquivalenceMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, tbl := randomSpace(t, rng, kernelEquivalenceN(t))
	for _, d := range AllDistances() {
		for _, modified := range []bool{false, true} {
			assertMatchesOracle(t, fmt.Sprintf("%s modified=%v", d.Name(), modified), s, tbl,
				AggloOptions{K: 5, Distance: d, Modified: modified})
		}
	}
}

// TestKernelEquivalenceAdult repeats the equivalence check on the Adult
// census generator — deeper hierarchies and the entropy measure, i.e. the
// cost tables the benchmarks run on.
func TestKernelEquivalenceAdult(t *testing.T) {
	s, tbl := adultSpace(t, kernelEquivalenceN(t))
	for _, d := range []Distance{D1{}, D3{}, D4{}} {
		for _, modified := range []bool{false, true} {
			assertMatchesOracle(t, fmt.Sprintf("adult %s modified=%v", d.Name(), modified), s, tbl,
				AggloOptions{K: 10, Distance: d, Modified: modified})
		}
	}
}

// TestKernelEquivalenceDiverse exercises the engine's diversity legs: the
// member-chain diversity gate of merge and the incremental distinct-count
// bookkeeping of shrink must reproduce the oracle's from-scratch decisions.
func TestKernelEquivalenceDiverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, tbl := randomSpace(t, rng, kernelEquivalenceN(t))
	sensitive := make([]int, tbl.Len())
	for i := range sensitive {
		sensitive[i] = rng.Intn(4)
	}
	for _, modified := range []bool{false, true} {
		assertMatchesOracle(t, fmt.Sprintf("diverse modified=%v", modified), s, tbl, AggloOptions{
			K: 6, Distance: D3{}, Modified: modified,
			Constraints: []Constraint{DistinctLDiversity(3)}, Sensitive: sensitive,
		})
	}
}

// TestKernelEquivalenceTCloseness runs the matrix under t-closeness — a
// non-addition-safe constraint, so the guarded absorb path runs too. This
// is the constraint leg of the DESIGN.md §17 oracle: ripe-shrink re-seeds
// singletons into the heap and the clustering must still match the
// oracle's byte for byte.
func TestKernelEquivalenceTCloseness(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	s, tbl := randomSpace(t, rng, kernelEquivalenceN(t))
	sensitive := make([]int, tbl.Len())
	for i := range sensitive {
		sensitive[i] = rng.Intn(5)
	}
	for _, modified := range []bool{false, true} {
		assertMatchesOracle(t, fmt.Sprintf("t-close modified=%v", modified), s, tbl, AggloOptions{
			K: 6, Distance: D3{}, Modified: modified,
			Constraints: []Constraint{TCloseness(0.4)}, Sensitive: sensitive,
		})
	}
}

// overBudgetSpace builds a space whose first attribute has more nodes than
// the dense-table budget admits (NumNodes² > hierarchy.LCATableBudget), so
// the kernel must keep the walk-up path for it, alongside a small tabled
// attribute.
func overBudgetSpace(t testing.TB, rng *rand.Rand, n int) (*Space, *table.Table) {
	t.Helper()
	const wide = 2080 // 2080 leaves + 1040 intervals + root = 3121 nodes; 3121² > 1<<22
	hw, err := hierarchy.Intervals(wide, []int{2}, "*")
	if err != nil {
		t.Fatal(err)
	}
	if hw.NumNodes()*hw.NumNodes() <= hierarchy.LCATableBudget {
		t.Fatalf("test hierarchy not over budget: %d nodes", hw.NumNodes())
	}
	names := make([]string, wide)
	for i := range names {
		names[i] = fmt.Sprint(i)
	}
	schema := table.MustSchema(
		table.MustAttribute("wide", names),
		table.MustAttribute("b", []string{"x", "y", "z", "w"}),
	)
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		tbl.MustAppend(table.Record{rng.Intn(wide), rng.Intn(4)})
	}
	hb, err := hierarchy.FromSubsets(4, []hierarchy.Subset{{Values: []int{0, 1}}, {Values: []int{2, 3}}}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hiers := []*hierarchy.Hierarchy{hw, hb}
	s, err := NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// TestLCACostRow checks the core scans' accessor on a tabled space and on
// the over-budget attribute's walk-up fill: every entry is CostAt of the
// walked LCA, bit for bit, and a tabled row is a view of the fused table.
func TestLCACostRow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small, _ := randomSpace(t, rng, 10)
	wide, _ := overBudgetSpace(t, rng, 10)
	for _, s := range []*Space{small, wide} {
		for a, h := range s.Hiers {
			var buf []float64
			for u := 0; u < h.NumNodes(); u += 1 + h.NumNodes()/40 {
				row := s.LCACostRow(a, u, buf)
				if len(row) != h.NumNodes() {
					t.Fatalf("attr %d node %d: row length %d, want %d", a, u, len(row), h.NumNodes())
				}
				for v := range row {
					if want := s.CostAt(a, h.LCA(u, v)); row[v] != want {
						t.Fatalf("attr %d: row(%d)[%d] = %v, want %v", a, u, v, row[v], want)
					}
				}
				tabled := s.fusedTables()[a] != nil
				if tabled && &row[0] != &s.fusedTables()[a][u*h.NumNodes()] {
					t.Fatalf("attr %d: tabled row is a copy, want a view of the fused table", a)
				}
				if !tabled && buf != nil && &row[0] != &buf[0] {
					t.Fatalf("attr %d: walk-up fill did not reuse the buffer", a)
				}
				buf = row
			}
		}
	}
}

// dipCosts raises the cost of every internal non-root node by 1 over an LM
// base. LM costs lie in [0, 1], so each such node costs more than the root
// above it: the measure's costs fall along root paths.
type dipCosts struct {
	loss.Measure
	hiers []*hierarchy.Hierarchy
}

func (m dipCosts) Cost(j, u int) float64 {
	h := m.hiers[j]
	if !h.IsLeaf(u) && u != h.Root() {
		return m.Measure.Cost(j, u) + 1
	}
	return m.Measure.Cost(j, u)
}

// TestLCABoundRow checks the envelope rows on tabled attributes, on the
// over-budget walk-up fill, and their aliasing of the cost rows when costs
// never fall along a root path. Every entry is the least cost on the root
// path of LCA(u, v), never above the cost of widening u or any of its
// ancestors to v.
func TestLCABoundRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small, _ := randomSpace(t, rng, 10)
	wide, _ := overBudgetSpace(t, rng, 10)
	dip := func(s *Space) *Space {
		d, err := NewSpace(s.Hiers, dipCosts{s.Measure, s.Hiers})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	var aliased, tabledDip, walkedDip int
	for _, s := range []*Space{small, wide, dip(small), dip(wide)} {
		for a, h := range s.Hiers {
			monotone := true
			for x := 0; x < h.NumNodes(); x++ {
				if p := h.Parent(x); p >= 0 && s.CostAt(a, p) < s.CostAt(a, x) {
					monotone = false
				}
			}
			tabled := s.fusedTables()[a] != nil
			var buf, costBuf []float64
			for u := 0; u < h.NumNodes(); u += 1 + h.NumNodes()/40 {
				row := s.LCABoundRow(a, u, buf)
				cost := s.LCACostRow(a, u, costBuf)
				if len(row) != h.NumNodes() {
					t.Fatalf("attr %d node %d: row length %d, want %d", a, u, len(row), h.NumNodes())
				}
				for v := range row {
					want := math.Inf(1)
					for x := h.LCA(u, v); x >= 0; x = h.Parent(x) {
						want = min(want, s.CostAt(a, x))
					}
					if row[v] != want {
						t.Fatalf("attr %d: bound(%d)[%d] = %v, want %v", a, u, v, row[v], want)
					}
					for w := u; w >= 0; w = h.Parent(w) {
						if c := s.CostAt(a, h.LCA(w, v)); row[v] > c {
							t.Fatalf("attr %d: bound(%d)[%d] = %v above the cost %v of widening ancestor %d", a, u, v, row[v], c, w)
						}
					}
				}
				switch {
				case tabled && monotone:
					if &row[0] != &cost[0] {
						t.Fatalf("attr %d: monotone costs, but the bound row is not the cost row", a)
					}
					aliased++
				case tabled:
					if &row[0] == &cost[0] {
						t.Fatalf("attr %d: costs fall along a root path, but the bound row is the cost row", a)
					}
					tabledDip++
				case !monotone:
					walkedDip++
				}
				if !tabled && buf != nil && &row[0] != &buf[0] {
					t.Fatalf("attr %d: walk-up fill did not reuse the buffer", a)
				}
				buf, costBuf = row, cost
			}
		}
	}
	if aliased == 0 || tabledDip == 0 || walkedDip == 0 {
		t.Fatalf("cases not all covered: aliased=%d tabled-dip=%d walked-dip=%d", aliased, tabledDip, walkedDip)
	}
}

// TestKernelForcedFallback forces the over-budget walk-up path: the wide
// attribute gets no fused table, so the kernel runs mixed tabled/walked —
// and must still match the oracle exactly.
func TestKernelForcedFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, tbl := overBudgetSpace(t, rng, 150)
	k := newKernel(s, D3{})
	if k.tabled != 1 || k.fillWalks != int64(s.Hiers[0].NumNodes()) {
		t.Fatalf("kernel shape: tabled=%d fillWalks=%d, want 1/%d", k.tabled, k.fillWalks, s.Hiers[0].NumNodes())
	}
	for _, modified := range []bool{false, true} {
		assertMatchesOracle(t, fmt.Sprintf("fallback modified=%v", modified), s, tbl,
			AggloOptions{K: 5, Distance: D3{}, Modified: modified})
	}
}

// slowD2 is a user-supplied distance (numerically D2) that the kernel
// cannot devirtualize: it must take the distCustom interface path and still
// agree with the oracle.
type slowD2 struct{}

func (slowD2) Name() string { return "slow-d2" }
func (slowD2) Eval(sa, sb, su int, dA, dB, dU float64) float64 {
	return dU - dA - dB
}

// TestKernelCustomDistance pins the interface fallback: a distance type the
// resolver does not know keeps working through the kernel's arena while
// dispatching Eval through the interface.
func TestKernelCustomDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s, tbl := randomSpace(t, rng, 150)
	if kind := resolveDistKind(slowD2{}); kind != distCustom {
		t.Fatalf("resolveDistKind(slowD2) = %d, want distCustom", kind)
	}
	assertMatchesOracle(t, "custom distance", s, tbl, AggloOptions{K: 5, Distance: slowD2{}})
	// And the numerically-equal built-in must agree with it too.
	custom, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: slowD2{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	builtin, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D2{}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	assertSameClustering(t, "custom vs builtin d2", custom, builtin)
}

// TestResolveDistKind pins the distance → kind mapping.
func TestResolveDistKind(t *testing.T) {
	cases := []struct {
		d    Distance
		kind distKind
	}{
		{D1{}, distD1},
		{D2{}, distD2},
		{D3{}, distD3},
		{D4{}, distD4},
		{NC{}, distNC},
		{slowD2{}, distCustom},
	}
	for _, c := range cases {
		if kind := resolveDistKind(c.d); kind != c.kind {
			t.Errorf("resolveDistKind(%s) = %d, want %d", c.d.Name(), kind, c.kind)
		}
	}
}

// TestKernelCounters checks the kernel's observability: a run reports its
// table-hit/walk split and arena slot reuses. Walk-ups are
// counted where they happen — once per strip fill, not per pair — so the
// over-budget space reports some and the tabled space none, and both
// counters read the same at every worker count.
func TestKernelCounters(t *testing.T) {
	spaces := []struct {
		name  string
		build func(testing.TB, *rand.Rand, int) (*Space, *table.Table)
	}{{"tabled", randomSpace}, {"over-budget", overBudgetSpace}}
	for _, sp := range spaces {
		s, tbl := sp.build(t, rand.New(rand.NewSource(5)), 200)
		var hits, walks [2]int64
		for x, workers := range []int{1, 4} {
			met := obs.NewMetrics()
			ctx := obs.With(context.Background(), met)
			if _, _, err := AgglomerateStatsCtx(ctx, s, tbl, AggloOptions{
				K: 5, Distance: D3{}, Modified: true, Workers: workers,
			}); err != nil {
				t.Fatal(err)
			}
			st := met.Snapshot()
			hits[x] = st.Counter(obs.CounterKernelTableHits)
			walks[x] = st.Counter(obs.CounterKernelFallbackWalks)
			if st.Counter(obs.CounterKernelArenaReuses) == 0 {
				t.Errorf("%s: merge-heavy run reused no arena slots: %v", sp.name, st.Counters)
			}
		}
		if hits[0] == 0 {
			t.Errorf("%s: kernel run reported no table hits", sp.name)
		}
		if sp.name == "tabled" && walks[0] != 0 {
			t.Errorf("fully-tabled space reported %d fallback walks", walks[0])
		}
		if sp.name == "over-budget" && walks[0] <= 0 {
			t.Errorf("over-budget space reported %d fallback walks, want > 0", walks[0])
		}
		if hits[0] != hits[1] || walks[0] != walks[1] {
			t.Errorf("%s: counters differ across workers {1, 4}: table hits %v, fallback walks %v", sp.name, hits, walks)
		}
	}
}

// TestKernelArenaPushOrder pins the arena's id discipline: ids must be
// allocated in push order, anything else is a bug worth a loud panic.
func TestKernelArenaPushOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s, tbl := randomSpace(t, rng, 4)
	k := newKernel(s, D3{})
	k.reserve(8, 4)
	k.addSingleton(0, tbl.Records[0])
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order alloc did not panic")
		}
	}()
	k.addSingleton(2, tbl.Records[1])
}
