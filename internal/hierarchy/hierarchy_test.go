package hierarchy

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperA6 builds the paper's A6 hierarchy: values a1..a5 with permissible
// subsets {a1,a2}, {a4,a5}, {a3,a4,a5} (0-based: {0,1}, {3,4}, {2,3,4}).
func paperA6(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := FromSubsets(5, []Subset{
		{Values: []int{0, 1}, Label: "f1-2"},
		{Values: []int{3, 4}, Label: "f4-5"},
		{Values: []int{2, 3, 4}, Label: "f3-5"},
	}, "*")
	if err != nil {
		t.Fatalf("FromSubsets: %v", err)
	}
	return h
}

func TestPaperA6Structure(t *testing.T) {
	h := paperA6(t)
	if h.NumValues() != 5 {
		t.Errorf("NumValues = %d, want 5", h.NumValues())
	}
	// 5 leaves + 3 subsets + root.
	if h.NumNodes() != 9 {
		t.Errorf("NumNodes = %d, want 9", h.NumNodes())
	}
	if h.Size(h.Root()) != 5 {
		t.Errorf("root size = %d, want 5", h.Size(h.Root()))
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPaperA6Closures(t *testing.T) {
	h := paperA6(t)
	cases := []struct {
		values []int
		size   int // size of the expected closure
	}{
		{[]int{0}, 1},       // singleton
		{[]int{0, 1}, 2},    // exactly {a1,a2}
		{[]int{3, 4}, 2},    // exactly {a4,a5}
		{[]int{2, 3}, 3},    // {a3,a4} -> closure {a3,a4,a5}
		{[]int{2, 4}, 3},    // {a3,a5} -> closure {a3,a4,a5}
		{[]int{0, 2}, 5},    // crosses the top split -> root
		{[]int{1, 3, 4}, 5}, // crosses -> root
	}
	for _, c := range cases {
		node := h.Closure(c.values)
		if h.Size(node) != c.size {
			t.Errorf("Closure(%v): size %d, want %d", c.values, h.Size(node), c.size)
		}
		for _, v := range c.values {
			if !h.Covers(node, v) {
				t.Errorf("Closure(%v) does not cover %d", c.values, v)
			}
		}
	}
}

func TestClosureEmptyPanics(t *testing.T) {
	h := paperA6(t)
	defer func() {
		if recover() == nil {
			t.Error("Closure(nil) did not panic")
		}
	}()
	h.Closure(nil)
}

func TestLeaves(t *testing.T) {
	h := paperA6(t)
	node := h.Closure([]int{2, 3}) // {a3,a4,a5}
	leaves := h.Leaves(node)
	want := []int{2, 3, 4}
	if len(leaves) != len(want) {
		t.Fatalf("Leaves = %v, want %v", leaves, want)
	}
	for i := range want {
		if leaves[i] != want[i] {
			t.Fatalf("Leaves = %v, want %v", leaves, want)
		}
	}
}

func TestIsAncestorAndCovers(t *testing.T) {
	h := paperA6(t)
	f35 := h.Closure([]int{2, 4}) // {a3,a4,a5}
	f45 := h.Closure([]int{3, 4}) // {a4,a5}
	if !h.IsAncestor(f35, f45) {
		t.Error("f3-5 should be ancestor of f4-5")
	}
	if h.IsAncestor(f45, f35) {
		t.Error("f4-5 should not be ancestor of f3-5")
	}
	if !h.IsAncestor(f45, f45) {
		t.Error("ancestor relation should be reflexive")
	}
	if !h.Covers(f35, 2) || h.Covers(f45, 2) {
		t.Error("Covers disagrees with subset contents")
	}
}

func TestValueOfPanicsOnInternal(t *testing.T) {
	h := paperA6(t)
	defer func() {
		if recover() == nil {
			t.Error("ValueOf(internal) did not panic")
		}
	}()
	h.ValueOf(h.Root())
}

func TestLabels(t *testing.T) {
	h := paperA6(t)
	node := h.Closure([]int{3, 4})
	if got := h.Label(node); got != "f4-5" {
		t.Errorf("Label = %q, want f4-5", got)
	}
	if got := h.Label(h.Root()); got != "*" {
		t.Errorf("root label = %q, want *", got)
	}
	h.SetLabel(node, "relabeled")
	if got := h.Label(node); got != "relabeled" {
		t.Errorf("Label after SetLabel = %q", got)
	}
}

func TestFromSubsetsRejectsNonLaminar(t *testing.T) {
	_, err := FromSubsets(4, []Subset{
		{Values: []int{0, 1}},
		{Values: []int{1, 2}},
	}, "*")
	if err == nil {
		t.Error("expected laminarity violation error")
	}
}

func TestFromSubsetsRejectsDuplicates(t *testing.T) {
	_, err := FromSubsets(4, []Subset{
		{Values: []int{0, 1}},
		{Values: []int{1, 0}},
	}, "*")
	if err == nil {
		t.Error("expected duplicate-subset error")
	}
}

func TestFromSubsetsRejectsSingleton(t *testing.T) {
	if _, err := FromSubsets(3, []Subset{{Values: []int{1}}}, "*"); err == nil {
		t.Error("expected singleton rejection")
	}
}

func TestFromSubsetsRejectsFullDomain(t *testing.T) {
	if _, err := FromSubsets(3, []Subset{{Values: []int{0, 1, 2}}}, "*"); err == nil {
		t.Error("expected full-domain rejection")
	}
}

func TestFromSubsetsRejectsBadValues(t *testing.T) {
	if _, err := FromSubsets(3, []Subset{{Values: []int{0, 3}}}, "*"); err == nil {
		t.Error("expected out-of-range rejection")
	}
	if _, err := FromSubsets(3, []Subset{{Values: []int{0, 0}}}, "*"); err == nil {
		t.Error("expected duplicate-value rejection")
	}
	if _, err := FromSubsets(3, []Subset{{Values: nil}}, "*"); err == nil {
		t.Error("expected empty-subset rejection")
	}
	if _, err := FromSubsets(0, nil, "*"); err == nil {
		t.Error("expected zero-domain rejection")
	}
}

func TestFlat(t *testing.T) {
	h := Flat(4)
	if h.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5 (4 leaves + root)", h.NumNodes())
	}
	if h.Height() != 1 {
		t.Errorf("Height = %d, want 1", h.Height())
	}
	if h.LCA(0, 1) != h.Root() {
		t.Error("LCA of distinct values should be the root")
	}
}

func TestFlatSingleValue(t *testing.T) {
	h := Flat(1)
	if h.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", h.NumNodes())
	}
	if h.Closure([]int{0}) != 0 {
		t.Error("closure of the only value should be its leaf")
	}
}

func TestLevels(t *testing.T) {
	h, err := Levels(6, [][][]int{
		{{0, 1}, {2, 3}, {4, 5}},
		{{0, 1, 2, 3}, {4, 5}},
	}, "*")
	if err != nil {
		t.Fatalf("Levels: %v", err)
	}
	// {4,5} appears in both levels and must be deduplicated:
	// 6 leaves + {0,1},{2,3},{4,5},{0..3} + root = 11 nodes.
	if h.NumNodes() != 11 {
		t.Errorf("NumNodes = %d, want 11", h.NumNodes())
	}
	if got := h.Closure([]int{0, 2}); h.Size(got) != 4 {
		t.Errorf("Closure(0,2) size = %d, want 4", h.Size(got))
	}
}

func TestLevelsErrors(t *testing.T) {
	if _, err := Levels(4, [][][]int{{{0, 1}, {1, 2, 3}}}, "*"); err == nil {
		t.Error("expected double-cover error")
	}
	if _, err := Levels(4, [][][]int{{{0, 1}}}, "*"); err == nil {
		t.Error("expected missing-cover error")
	}
	if _, err := Levels(4, [][][]int{{{0, 1}, {2, 9}}}, "*"); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestIntervals(t *testing.T) {
	h, err := Intervals(20, []int{5, 10}, "*")
	if err != nil {
		t.Fatalf("Intervals: %v", err)
	}
	// Closure of {0, 4} is the first width-5 block.
	if got := h.Closure([]int{0, 4}); h.Size(got) != 5 {
		t.Errorf("Closure(0,4) size = %d, want 5", h.Size(got))
	}
	// Closure of {0, 7} spans two width-5 blocks -> width-10 block.
	if got := h.Closure([]int{0, 7}); h.Size(got) != 10 {
		t.Errorf("Closure(0,7) size = %d, want 10", h.Size(got))
	}
	// Closure of {0, 15} -> root.
	if got := h.Closure([]int{0, 15}); got != h.Root() {
		t.Error("Closure(0,15) should be the root")
	}
}

func TestIntervalsRaggedTail(t *testing.T) {
	// 7 values with width 3: blocks {0,1,2}, {3,4,5}, {6} (dropped singleton).
	h, err := Intervals(7, []int{3}, "*")
	if err != nil {
		t.Fatalf("Intervals: %v", err)
	}
	if got := h.Closure([]int{6}); got != h.LeafOf(6) {
		t.Error("trailing singleton block should not create a node")
	}
	if got := h.Closure([]int{3, 5}); h.Size(got) != 3 {
		t.Errorf("Closure(3,5) size = %d, want 3", h.Size(got))
	}
}

func TestIntervalsErrors(t *testing.T) {
	if _, err := Intervals(10, []int{1}, "*"); err == nil {
		t.Error("expected width<=1 rejection")
	}
	if _, err := Intervals(10, []int{4, 6}, "*"); err == nil {
		t.Error("expected non-multiple width rejection")
	}
}

// randomHierarchy builds a random laminar hierarchy by recursively
// partitioning [0, n) ranges.
func randomHierarchy(rng *rand.Rand, n int) *Hierarchy {
	var subsets []Subset
	var split func(lo, hi int, depth int)
	split = func(lo, hi, depth int) {
		if hi-lo <= 2 || depth > 4 {
			return
		}
		mid := lo + 1 + rng.Intn(hi-lo-1)
		for _, r := range [][2]int{{lo, mid}, {mid, hi}} {
			if r[1]-r[0] >= 2 && !(r[0] == 0 && r[1] == n) {
				vals := make([]int, 0, r[1]-r[0])
				for v := r[0]; v < r[1]; v++ {
					vals = append(vals, v)
				}
				subsets = append(subsets, Subset{Values: vals})
			}
			split(r[0], r[1], depth+1)
		}
	}
	split(0, n, 0)
	h, err := FromSubsets(n, dedupeSubsets(subsets), "*")
	if err != nil {
		panic(err)
	}
	return h
}

func TestLCAPropertiesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	h := randomHierarchy(rng, 24)
	pick := func(x int) int {
		n := h.NumNodes()
		return ((x % n) + n) % n
	}
	// Commutativity.
	if err := quick.Check(func(a, b int) bool {
		u, v := pick(a), pick(b)
		return h.LCA(u, v) == h.LCA(v, u)
	}, cfg); err != nil {
		t.Error("LCA not commutative:", err)
	}
	// Idempotence.
	if err := quick.Check(func(a int) bool {
		u := pick(a)
		return h.LCA(u, u) == u
	}, cfg); err != nil {
		t.Error("LCA not idempotent:", err)
	}
	// Associativity.
	if err := quick.Check(func(a, b, c int) bool {
		u, v, w := pick(a), pick(b), pick(c)
		return h.LCA(h.LCA(u, v), w) == h.LCA(u, h.LCA(v, w))
	}, cfg); err != nil {
		t.Error("LCA not associative:", err)
	}
	// Extensivity: LCA is an ancestor of both arguments.
	if err := quick.Check(func(a, b int) bool {
		u, v := pick(a), pick(b)
		l := h.LCA(u, v)
		return h.IsAncestor(l, u) && h.IsAncestor(l, v)
	}, cfg); err != nil {
		t.Error("LCA not extensive:", err)
	}
	// Minimality: no child of the LCA contains both.
	if err := quick.Check(func(a, b int) bool {
		u, v := pick(a), pick(b)
		l := h.LCA(u, v)
		for _, c := range h.Children(l) {
			if h.IsAncestor(c, u) && h.IsAncestor(c, v) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error("LCA not minimal:", err)
	}
}

func TestAncestorTransitivityQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := randomHierarchy(rng, 16)
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	pick := func(x int) int {
		n := h.NumNodes()
		return ((x % n) + n) % n
	}
	if err := quick.Check(func(a, b, c int) bool {
		u, v, w := pick(a), pick(b), pick(c)
		if h.IsAncestor(u, v) && h.IsAncestor(v, w) {
			return h.IsAncestor(u, w)
		}
		return true
	}, cfg); err != nil {
		t.Error("ancestor relation not transitive:", err)
	}
}

func TestSizeConsistencyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(30)
		h := randomHierarchy(rng, n)
		if err := h.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		for u := 0; u < h.NumNodes(); u++ {
			if got := len(h.Leaves(u)); got != h.Size(u) {
				t.Errorf("node %d: Size=%d but %d leaves", u, h.Size(u), got)
			}
		}
	}
}

func TestDepthAndHeight(t *testing.T) {
	h := paperA6(t)
	if h.Depth(h.Root()) != 0 {
		t.Error("root depth should be 0")
	}
	// Leaf a4 (id 3) sits under {a4,a5} under {a3,a4,a5} under root: depth 3.
	if got := h.Depth(3); got != 3 {
		t.Errorf("Depth(a4) = %d, want 3", got)
	}
	if h.Height() != 3 {
		t.Errorf("Height = %d, want 3", h.Height())
	}
}

func TestStringRendering(t *testing.T) {
	h := paperA6(t)
	s := h.String()
	if s == "" {
		t.Error("String() empty")
	}
}

func TestParentChain(t *testing.T) {
	h := paperA6(t)
	// Leaf a4 (id 3): parent {a4,a5}, grandparent {a3,a4,a5}, then root.
	p1 := h.Parent(3)
	if h.Size(p1) != 2 {
		t.Errorf("parent size = %d, want 2", h.Size(p1))
	}
	p2 := h.Parent(p1)
	if h.Size(p2) != 3 {
		t.Errorf("grandparent size = %d, want 3", h.Size(p2))
	}
	if h.Parent(p2) != h.Root() {
		t.Error("great-grandparent should be root")
	}
	if h.Parent(h.Root()) != -1 {
		t.Error("root parent should be -1")
	}
}

func TestMustFromSubsetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFromSubsets did not panic on invalid input")
		}
	}()
	MustFromSubsets(0, nil, "*")
}

func TestMustFromSubsetsOK(t *testing.T) {
	h := MustFromSubsets(3, []Subset{{Values: []int{0, 1}}}, "*")
	if h.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", h.NumNodes())
	}
}

func TestCompareSets(t *testing.T) {
	cases := []struct {
		a, b []int
		want setRelation
	}{
		{[]int{1, 2}, []int{3, 4}, setDisjoint},
		{[]int{1, 2}, []int{1, 2}, setEqual},
		{[]int{1}, []int{1, 2}, setNestedAinB},
		{[]int{1, 2}, []int{2}, setNestedBinA},
		{[]int{1, 2}, []int{2, 3}, setCrossing},
	}
	for _, c := range cases {
		if got := compareSets(c.a, c.b); got != c.want {
			t.Errorf("compareSets(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestLCATableMatchesWalk checks the dense LCA table against the walk-up
// LCA on every node pair of the paper's A6 hierarchy and of an interval
// hierarchy, and that repeated calls return the same cached slice.
func TestLCATableMatchesWalk(t *testing.T) {
	hi, err := Intervals(16, []int{2, 8}, "*")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Hierarchy{paperA6(t), hi} {
		tab := h.LCATable()
		n := h.NumNodes()
		if tab == nil {
			t.Fatalf("LCATable nil for %d nodes (budget %d)", n, LCATableBudget)
		}
		if len(tab) != n*n {
			t.Fatalf("LCATable has %d entries, want %d", len(tab), n*n)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := int(tab[u*n+v]), h.LCA(u, v); got != want {
					t.Fatalf("table LCA(%d, %d) = %d, walk-up = %d", u, v, got, want)
				}
			}
		}
		if again := h.LCATable(); &again[0] != &tab[0] {
			t.Error("LCATable rebuilt on second call; want the cached slice")
		}
	}
}

// TestLCATableOverBudget checks that a hierarchy whose nodes² exceeds
// LCATableBudget declines to build the dense table — the kernel's cue to
// keep the walk-up path.
func TestLCATableOverBudget(t *testing.T) {
	h, err := Intervals(2080, []int{2}, "*")
	if err != nil {
		t.Fatal(err)
	}
	if n := h.NumNodes(); n*n <= LCATableBudget {
		t.Fatalf("test hierarchy under budget: %d nodes", n)
	}
	if tab := h.LCATable(); tab != nil {
		t.Fatalf("LCATable returned %d entries for an over-budget hierarchy, want nil", len(tab))
	}
}
