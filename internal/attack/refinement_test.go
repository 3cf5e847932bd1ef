package attack

import (
	"slices"
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// twoFamilySetup builds a 1-attribute population over {a1,a2,b1,b2} with
// the two-level hierarchy {{a1,a2}=A, {b1,b2}=B} below the root.
func twoFamilySetup(t *testing.T) (*cluster.Space, *table.Table) {
	t.Helper()
	schema := table.MustSchema(table.MustAttribute("A", []string{"a1", "a2", "b1", "b2"}))
	tbl := table.New(schema)
	for v := 0; v < 4; v++ {
		tbl.MustAppend(table.Record{v})
	}
	h, err := hierarchy.FromSubsets(4, []hierarchy.Subset{
		{Values: []int{0, 1}, Label: "A"},
		{Values: []int{2, 3}, Label: "B"},
	}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hiers := []*hierarchy.Hierarchy{h}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// TestRefinementNoAuxBreach: a release [A, A, b1, b2] leaves the b-rows'
// subtrees disjoint from everyone else's, so the refinement attack pins
// each of them to a single candidate using only the release and the
// hierarchy — no original table, no population knowledge. The collapse
// flags a genuine breach: the release is not even (1,2)-anonymous.
func TestRefinementNoAuxBreach(t *testing.T) {
	s, tbl := twoFamilySetup(t)
	h := s.Hiers[0]
	nodeA := h.Closure([]int{0, 1})
	g := table.NewGen(tbl.Schema, 4)
	g.Records[0][0] = nodeA
	g.Records[1][0] = nodeA
	g.Records[2][0] = h.LeafOf(2)
	g.Records[3][0] = h.LeafOf(3)
	if anonymity.Check(s, tbl, g, 2).OneK {
		t.Fatal("construction should breach (1,2)")
	}
	counts, _, err := SimulateRefinement(s.Hiers, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Errorf("row %d: refined candidates = %d, want %d", i, c, want[i])
		}
	}
}

// TestRefinementNeverOverReports: on the Section IV-A suppress-only
// construction the population-informed second adversary re-identifies the
// identity rows, but without auxiliary information the release is
// genuinely ambiguous — a hidden table where suppressed and identity
// records swap is equally consistent. The refinement attack must keep all
// such worlds: every identity row retains its full overlap set {self,
// both suppressed rows}.
func TestRefinementNeverOverReports(t *testing.T) {
	const n, k = 6, 2
	s, tbl := suppressOnly(t, n)
	g := table.NewGen(tbl.Schema, n)
	for i := 0; i < n-k; i++ {
		g.Records[i][0] = s.Hiers[0].LeafOf(i)
	}
	for i := n - k; i < n; i++ {
		g.Records[i][0] = s.Hiers[0].Root()
	}
	matches := anonymity.MatchCounts(s, tbl, g)
	for i := 0; i < n-k; i++ {
		if matches[i] != 1 {
			t.Fatalf("second adversary should pin identity row %d, got %d matches", i, matches[i])
		}
	}
	counts, _, err := SimulateRefinement(s.Hiers, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-k; i++ {
		if counts[i] != 1+k {
			t.Errorf("identity row %d: refined candidates = %d, want %d (self + %d suppressed rows)", i, counts[i], 1+k, k)
		}
	}
}

// TestRefinementContainsMatches verifies the containment theorem behind
// the attack: the second adversary's match set is a subset of the refined
// candidate set, per record, on real pipeline output.
func TestRefinementContainsMatches(t *testing.T) {
	ds := datagen.ART(120, 6)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := refinementCandidates(ds.Hiers, g)
	if err != nil {
		t.Fatal(err)
	}
	counts, _, err := SimulateRefinement(ds.Hiers, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	matches := anonymity.MatchCounts(s, ds.Table, g)
	for i, cand := range refined {
		if len(cand) < matches[i] {
			t.Errorf("record %d: %d refined candidates < %d true matches", i, len(cand), matches[i])
		}
		if counts[i] != len(cand) {
			t.Errorf("record %d: SimulateRefinement counts %d refined candidates, the list form %d", i, counts[i], len(cand))
		}
	}
}

// TestRefinementRespectsGlobal1K: on a certified globally (1,k)-anonymous
// release the refined candidate sets never drop below k.
func TestRefinementRespectsGlobal1K(t *testing.T) {
	ds := datagen.ART(100, 8)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err = core.MakeGlobal1KCtx(nil, s, ds.Table, g, k)
	if err != nil {
		t.Fatal(err)
	}
	if !anonymity.IsGlobal1K(s, ds.Table, g, k) {
		t.Fatal("upgrade did not certify global (1,k)")
	}
	counts, _, err := SimulateRefinement(ds.Hiers, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c < k {
			t.Errorf("record %d: refined candidates = %d < k on a global (1,k) release", i, c)
		}
	}
}

// TestOverlapGraphIdentity: every row overlaps itself, so the identity
// matching is always perfect and the refinement is never vacuous.
func TestOverlapGraphIdentity(t *testing.T) {
	s, tbl := suppressOnly(t, 5)
	g := table.NewGen(tbl.Schema, 5)
	for i := range g.Records {
		g.Records[i][0] = s.Hiers[0].LeafOf(i)
	}
	adj := overlapGraph(s.Hiers, g)
	edges := 0
	for i := 0; i < 5; i++ {
		if !slices.Contains(adj[i], i) {
			t.Errorf("missing identity edge (%d,%d)", i, i)
		}
		edges += len(adj[i])
	}
	// Distinct identity rows under a flat hierarchy overlap nobody else.
	if edges != 5 {
		t.Errorf("flat identity release has %d overlap edges, want 5", edges)
	}
	counts, _, err := SimulateRefinement(s.Hiers, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(counts, []int{1, 1, 1, 1, 1}) {
		t.Errorf("flat identity release: refined candidates %v, want 1 each", counts)
	}
}

func TestRefinementErrors(t *testing.T) {
	s, tbl := suppressOnly(t, 3)
	g := table.NewGen(tbl.Schema, 3)
	for i := range g.Records {
		g.Records[i][0] = s.Hiers[0].LeafOf(i)
	}
	if _, _, err := SimulateRefinement(s.Hiers[:0], g, nil); err == nil {
		t.Error("expected hierarchy-count mismatch error")
	}
	if _, _, err := SimulateRefinement(s.Hiers, g, []int{0, 1}); err == nil {
		t.Error("expected sensitive-count mismatch error")
	}
	empty := table.NewGen(tbl.Schema, 0)
	counts, _, err := SimulateRefinement(s.Hiers, empty, nil)
	if err != nil || len(counts) != 0 {
		t.Errorf("empty release: counts=%v err=%v", counts, err)
	}
}

// overlapGraph is the overlap graph of a release from one pairwise test
// per pair of rows: per attribute, one row's node is an ancestor of the
// other's. Entry i lists the rows overlapping row i, ascending.
func overlapGraph(hiers []*hierarchy.Hierarchy, g *table.GenTable) [][]int {
	adj := make([][]int, g.Len())
	for i, a := range g.Records {
		for j, b := range g.Records {
			overlap := true
			for at, h := range hiers {
				overlap = overlap && (h.IsAncestor(a[at], b[at]) || h.IsAncestor(b[at], a[at]))
			}
			if overlap {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// refinementCandidates is the list form of the refinement attack: per
// position, the overlap edges that extend to a perfect matching, from
// bipartite.AllowedEdges on the pairwise overlap graph.
func refinementCandidates(hiers []*hierarchy.Hierarchy, g *table.GenTable) ([][]int, error) {
	return bipartite.AllowedEdges(bipartite.FromAdjacency(g.Len(), overlapGraph(hiers, g)))
}
