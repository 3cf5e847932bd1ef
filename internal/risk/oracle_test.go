package risk

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/attack"
	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// This file is the naive oracle of the audit layer: the pairwise loops that
// built the consistency graph, the overlap graph and the intersection
// attack's candidate sets before they were built from row classes
// (internal/anonymity/graph.go), kept verbatim as adjacency lists, with the
// matches taken from bipartite.AllowedEdges on their graphs. Every audit
// result — anonymity.Report, AttackReport, Assess, SimulateInformed and
// CandidateDiversity — must come out identical on the production path and
// on these loops, including releases that are not positional. It lives in
// package risk because risk is the one package that sees every audit
// consumer.

// naiveBuildGraph is V_{D,g(D)} from one Consistent call per pair: entry i
// lists the rows of g consistent with record i, ascending.
func naiveBuildGraph(s *cluster.Space, tbl *table.Table, g *table.GenTable) [][]int {
	adj := make([][]int, tbl.Len())
	for i, r := range tbl.Records {
		for j, gj := range g.Records {
			if s.Consistent(r, gj) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// naiveAllowed is bipartite.AllowedEdges on the graph with the left
// adjacency lists adj and nRight right nodes; without a perfect matching
// no edge is a match, and every list is empty.
func naiveAllowed(adj [][]int, nRight int) [][]int {
	allowed, err := bipartite.AllowedEdges(bipartite.FromAdjacency(nRight, adj))
	if err != nil {
		return make([][]int, len(adj))
	}
	return allowed
}

// naiveMatchCounts is the length of each list of naiveAllowed.
func naiveMatchCounts(adj [][]int, nRight int) []int {
	counts := make([]int, len(adj))
	for u, vs := range naiveAllowed(adj, nRight) {
		counts[u] = len(vs)
	}
	return counts
}

// hasPerfectMatching reports whether the graph with the left adjacency
// lists adj and nRight right nodes has a perfect matching.
func hasPerfectMatching(adj [][]int, nRight int) bool {
	return bipartite.HopcroftKarp(bipartite.FromAdjacency(nRight, adj)).IsPerfect()
}

// naiveIs1K counts, per record, the consistent released records.
func naiveIs1K(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	for _, r := range tbl.Records {
		count := 0
		for _, gj := range g.Records {
			if s.Consistent(r, gj) {
				count++
				if count >= k {
					break
				}
			}
		}
		if count < k {
			return false
		}
	}
	return true
}

// naiveIsK1 counts, per released record, the consistent records.
func naiveIsK1(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	for _, gj := range g.Records {
		count := 0
		for _, r := range tbl.Records {
			if s.Consistent(r, gj) {
				count++
				if count >= k {
					break
				}
			}
		}
		if count < k {
			return false
		}
	}
	return true
}

// naiveCheck is anonymity.Check from the pairwise verifiers. Global
// (1,k) holds vacuously on an empty table, as IsGlobal1K does.
func naiveCheck(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) anonymity.Report {
	rep := anonymity.Report{
		K:              k,
		Generalization: anonymity.IsGeneralizationOf(s, tbl, g),
		KAnonymous:     anonymity.IsKAnonymous(g, k),
		OneK:           naiveIs1K(s, tbl, g, k),
		KOne:           naiveIsK1(s, tbl, g, k),
	}
	rep.KK = rep.OneK && rep.KOne
	counts := naiveMatchCounts(naiveBuildGraph(s, tbl, g), g.Len())
	if len(counts) > 0 {
		rep.MinMatches = slices.Min(counts)
	}
	rep.Global1K = true
	for _, c := range counts {
		if c < k {
			rep.Global1K = false
		}
	}
	return rep
}

// naiveOverlapGraph is the overlap graph from one rowsOverlap call per
// pair of released rows, as adjacency lists.
func naiveOverlapGraph(hiers []*hierarchy.Hierarchy, g *table.GenTable) [][]int {
	n := g.Len()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rowsOverlap(hiers, g.Records[i], g.Records[j]) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// rowsOverlap reports whether two generalized records share at least one
// original record: per attribute, the permissible subsets must intersect,
// which for a laminar family means one is an ancestor of the other.
func rowsOverlap(hiers []*hierarchy.Hierarchy, a, b table.GenRecord) bool {
	for j := range a {
		h := hiers[j]
		if !h.IsAncestor(a[j], b[j]) && !h.IsAncestor(b[j], a[j]) {
			return false
		}
	}
	return true
}

// naiveIntersection is attack.SimulateIntersection with each record's
// candidate set drawn from one Consistent call per released row. Inputs
// are assumed valid.
func naiveIntersection(releases []attack.Release, sensitive []int) []attack.IntersectionOutcome {
	candidates := make(map[int][]int)
	releaseCount := make(map[int]int)
	for _, rel := range releases {
		n := rel.Tbl.Len()
		for u := 0; u < n; u++ {
			id := rel.IDs[u]
			var cand []int
			for j := 0; j < n; j++ {
				if rel.Space.Consistent(rel.Tbl.Records[u], rel.Gen.Records[j]) {
					cand = append(cand, rel.IDs[j])
				}
			}
			sort.Ints(cand)
			if releaseCount[id] == 0 {
				candidates[id] = cand
			} else {
				candidates[id] = naiveIntersectSorted(candidates[id], cand)
			}
			releaseCount[id]++
		}
	}
	ids := make([]int, 0, len(candidates))
	for id := range candidates { //kanon:allow determinism -- keys are sorted before any ordered use
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]attack.IntersectionOutcome, 0, len(ids))
	for _, id := range ids {
		o := attack.IntersectionOutcome{ID: id, Releases: releaseCount[id], Candidates: len(candidates[id])}
		if sensitive != nil {
			o.SensitiveExposed = naiveHomogeneousIDs(candidates[id], sensitive)
		}
		out = append(out, o)
	}
	return out
}

// naiveIntersectSorted intersects two ascending slices.
func naiveIntersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// naiveHomogeneousIDs reports whether all candidate individuals carry the
// same known sensitive value.
func naiveHomogeneousIDs(ids []int, sensitive []int) bool {
	if len(ids) == 0 {
		return false
	}
	for _, id := range ids {
		if id >= len(sensitive) {
			return false
		}
	}
	for _, id := range ids[1:] {
		if sensitive[id] != sensitive[ids[0]] {
			return false
		}
	}
	return true
}

// naiveEvaluateAttacks is EvaluateAttacks over the naive graphs.
func naiveEvaluateAttacks(t testing.TB, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int, sensitive []int) *AttackReport {
	t.Helper()
	n := tbl.Len()
	rep := &AttackReport{K: k, Records: n}
	if n == 0 {
		return rep
	}
	vuln := make([]bool, n)
	vector := func(name string, adj [][]int) AttackVector {
		allowed := naiveAllowed(adj, g.Len())
		counts := make([]int, n)
		exposed := make([]bool, n)
		for i, vs := range allowed {
			counts[i] = len(vs)
			exposed[i] = sensitive != nil && homogeneousIdx(vs, sensitive)
		}
		markVulnerable(vuln, counts, k)
		return vectorize(name, counts, exposed, k)
	}
	rep.Matching = vector("matching", naiveBuildGraph(s, tbl, g))
	rep.Refinement = vector("refinement", naiveOverlapGraph(s.Hiers, g))
	rels, err := attack.OverlappingWindows(s, tbl, g)
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	nExposed := 0
	for _, o := range naiveIntersection(rels, sensitive) {
		counts = append(counts, o.Candidates)
		if o.SensitiveExposed {
			nExposed++
		}
		if o.Candidates < k {
			vuln[o.ID] = true
		}
	}
	rep.Intersection = vectorize("intersection", counts, nil, k)
	rep.Intersection.Exposed = nExposed
	for _, v := range vuln {
		if v {
			rep.VulnerableUnion++
		}
	}
	rep.Score = pct(rep.VulnerableUnion, n)
	return rep
}

// homogeneousIdx reports whether all candidate positions carry the same
// sensitive value (and there is at least one candidate).
func homogeneousIdx(candidates []int, sensitive []int) bool {
	if len(candidates) == 0 {
		return false
	}
	for _, j := range candidates[1:] {
		if sensitive[j] != sensitive[candidates[0]] {
			return false
		}
	}
	return true
}

// naiveInformed is attack.SimulateInformed over the naive graph.
func naiveInformed(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int, known []int) []int {
	n := tbl.Len()
	isKnown := make(map[int]bool, len(known))
	for _, u := range known {
		isKnown[u] = true
	}
	pruned := naiveBuildGraph(s, tbl, g)
	for u := 0; u < n; u++ {
		if isKnown[u] {
			pruned[u] = slices.DeleteFunc(pruned[u], func(v int) bool { return sensitive[v] != sensitive[u] })
		}
	}
	return naiveMatchCounts(pruned, n)
}

// naiveCandidateDiversity is anonymity.CandidateDiversity from one
// Consistent call per pair and a set of values per record.
func naiveCandidateDiversity(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int) []int {
	out := make([]int, tbl.Len())
	for i, ri := range tbl.Records {
		values := make(map[int]bool)
		for j, gj := range g.Records {
			if s.Consistent(ri, gj) {
				values[sensitive[j]] = true
			}
		}
		out[i] = len(values)
	}
	return out
}

// naiveProsecutor is Assess's per-record risk for the given candidate
// counts.
func naiveProsecutor(counts []int) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = 1
		if c > 0 {
			out[i] = 1 / float64(c)
		}
	}
	return out
}

// assertAuditMatchesOracle runs every audit entry point on one release and
// requires the oracle's result. sensitive may be nil.
func assertAuditMatchesOracle(t testing.TB, name string, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int, sensitive []int) {
	t.Helper()
	if got, want := anonymity.Check(s, tbl, g, k), naiveCheck(s, tbl, g, k); got != want {
		t.Fatalf("%s: Check = %+v, oracle %+v", name, got, want)
	}
	if got, want := anonymity.IsKK(s, tbl, g, k), naiveIs1K(s, tbl, g, k) && naiveIsK1(s, tbl, g, k); got != want {
		t.Fatalf("%s: IsKK = %v, oracle %v", name, got, want)
	}

	for _, sens := range [][]int{nil, sensitive} {
		got, err := EvaluateAttacks(s, tbl, g, k, sens)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveEvaluateAttacks(t, s, tbl, g, k, sens); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (sensitive %v): EvaluateAttacks = %+v, oracle %+v", name, sens != nil, got, want)
		}
	}
	if n := tbl.Len(); len(sensitive) == n && n == g.Len() {
		// The adversary knows every third record's value, no record's, or
		// every record's.
		var third, all []int
		for u := 0; u < n; u++ {
			if u%3 == 0 {
				third = append(third, u)
			}
			all = append(all, u)
		}
		for _, known := range [][]int{third, nil, all} {
			got, err := attack.SimulateInformed(s, tbl, g, sensitive, known)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveInformed(s, tbl, g, sensitive, known); !slices.Equal(got, want) {
				t.Fatalf("%s (%d known): SimulateInformed = %v, oracle %v", name, len(known), got, want)
			}
		}
		// The release's sensitive column, a one-valued column and an
		// all-distinct one.
		one, distinct := make([]int, n), make([]int, n)
		for j := range distinct {
			distinct[j] = j
		}
		for _, sens := range [][]int{sensitive, one, distinct} {
			div, err := anonymity.CandidateDiversity(s, tbl, g, sens)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveCandidateDiversity(s, tbl, g, sens); !slices.Equal(div, want) {
				t.Fatalf("%s: CandidateDiversity = %v, oracle %v", name, div, want)
			}
		}
	}

	graph := naiveBuildGraph(s, tbl, g)
	neighbors := make([]int, tbl.Len())
	for i, rows := range graph {
		neighbors[i] = len(rows)
	}
	matches := naiveMatchCounts(graph, g.Len())
	for _, m := range []struct {
		model  Model
		counts []int
	}{{ByNeighbors, neighbors}, {ByMatches, matches}} {
		rep, err := Assess(s, tbl, g, m.model)
		if err != nil {
			t.Fatal(err)
		}
		if want := naiveProsecutor(m.counts); !slices.Equal(rep.Prosecutor, want) {
			t.Fatalf("%s: Assess(%v) prosecutor risks = %v, oracle %v", name, m.model, rep.Prosecutor, want)
		}
	}
}

// auditFixture is one generated dataset with its space.
type auditFixture struct {
	s  *cluster.Space
	ds *datagen.Dataset
}

func newAuditFixture(t testing.TB, ds *datagen.Dataset) auditFixture {
	t.Helper()
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	return auditFixture{s: s, ds: ds}
}

// release anonymizes the fixture's table under one notion.
func (f auditFixture) release(t testing.TB, notion string, k int) *table.GenTable {
	t.Helper()
	var g *table.GenTable
	var err error
	switch notion {
	case "k":
		g, err = core.KAnonymizeCtx(nil, f.s, f.ds.Table, cluster.AggloOptions{K: k, Workers: 1})
	case "kk":
		g, err = core.KKAnonymizeCtx(nil, f.s, f.ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	case "global":
		if g, err = core.KKAnonymizeCtx(nil, f.s, f.ds.Table, k, core.K1ByExpansion, nil, nil, 0); err == nil {
			g, _, err = core.MakeGlobal1KCtx(nil, f.s, f.ds.Table, g, k)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAuditOracle compares the audit with the naive oracle on k, (k,k) and
// global (1,k) releases of ADT and ART at k ∈ {2, 5, 10}.
func TestAuditOracle(t *testing.T) {
	n := 240
	if testing.Short() {
		n = 120
	}
	for _, ds := range []*datagen.Dataset{datagen.Adult(n, 3), datagen.ART(n, 3)} {
		f := newAuditFixture(t, ds)
		for _, notion := range []string{"k", "kk", "global"} {
			for _, k := range []int{2, 5, 10} {
				name := fmt.Sprintf("%s/%s/k=%d", ds.Name, notion, k)
				g := f.release(t, notion, k)
				assertAuditMatchesOracle(t, name, f.s, ds.Table, g, k, ds.Sensitive)
			}
		}
	}
}

// randomHierarchy builds a random laminar hierarchy over m values: the
// shuffled values are cut recursively into ever smaller runs, each run of
// two or more values a permissible subset.
func randomHierarchy(rng *rand.Rand, m int) *hierarchy.Hierarchy {
	var subsets []hierarchy.Subset
	var split func(vs []int)
	split = func(vs []int) {
		for rest := vs; len(rest) > 0; {
			w := 1 + rng.Intn(min(len(rest), len(vs)-1))
			block := rest[:w]
			rest = rest[w:]
			if w > 1 {
				subsets = append(subsets, hierarchy.Subset{Values: slices.Clone(block)})
				split(block)
			}
		}
	}
	if m > 1 {
		split(rng.Perm(m))
	}
	return hierarchy.MustFromSubsets(m, subsets, "*")
}

// randomAncestor returns leaf v or one of its ancestors.
func randomAncestor(rng *rand.Rand, h *hierarchy.Hierarchy, v int) int {
	u := h.LeafOf(v)
	for h.Parent(u) >= 0 && rng.Intn(2) == 0 {
		u = h.Parent(u)
	}
	return u
}

// randomAudit builds a random table over attrs attributes with random
// hierarchies, and a positional generalization of it whose rows fall into
// exactly classes row classes when that many are reachable; n is at least
// the number of classes. Sensitive values are random.
func randomAudit(rng *rand.Rand, attrs, classes, n int) (*cluster.Space, *table.Table, *table.GenTable, []int) {
	hiers := make([]*hierarchy.Hierarchy, attrs)
	attrList := make([]*table.Attribute, attrs)
	for a := range hiers {
		m := 2 + rng.Intn(7)
		hiers[a] = randomHierarchy(rng, m)
		vals := make([]string, m)
		for v := range vals {
			vals[v] = fmt.Sprint(v)
		}
		attrList[a] = table.MustAttribute(fmt.Sprint("a", a), vals)
	}
	schema := table.MustSchema(attrList...)
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		panic(err)
	}
	tbl := table.New(schema)
	var rows []table.GenRecord
	distinct := map[string]bool{}
	// New records until the rows reach the wanted number of classes (each
	// record adds at most one), then records under existing rows.
	for tries := 0; len(distinct) < classes && tries < 50*classes; tries++ {
		r := make(table.Record, attrs)
		row := make(table.GenRecord, attrs)
		for a, h := range hiers {
			r[a] = rng.Intn(h.NumValues())
			row[a] = randomAncestor(rng, h, r[a])
		}
		if key := fmt.Sprint(row); !distinct[key] {
			distinct[key] = true
			tbl.MustAppend(r)
			rows = append(rows, row)
		}
	}
	for len(rows) < n {
		row := rows[rng.Intn(len(rows))]
		r := make(table.Record, attrs)
		for a, h := range hiers {
			leaves := h.Leaves(row[a])
			r[a] = leaves[rng.Intn(len(leaves))]
		}
		tbl.MustAppend(r)
		rows = append(rows, row.Clone())
	}
	g := table.NewGen(schema, len(rows))
	for i, row := range rows {
		copy(g.Records[i], row)
	}
	sensitive := make([]int, len(rows))
	for i := range sensitive {
		sensitive[i] = rng.Intn(3)
	}
	return s, tbl, g, sensitive
}

// TestAuditWordBoundaries runs the oracle comparison on releases whose
// class masks end just before, at and after a 64-bit word boundary.
func TestAuditWordBoundaries(t *testing.T) {
	for _, classes := range []int{63, 64, 65, 129} {
		rng := rand.New(rand.NewSource(int64(classes)))
		s, tbl, g, sensitive := randomAudit(rng, 4, classes, classes+classes/2)
		if got := len(g.Classes()); got != classes {
			t.Fatalf("release has %d row classes, want %d", got, classes)
		}
		assertAuditMatchesOracle(t, fmt.Sprintf("classes=%d", classes), s, tbl, g, 2, sensitive)
	}
}

// TestAuditNoPerfectMatching: a release whose consistency graph has no
// perfect matching — three rows only the first record is consistent with —
// reports zero matches everywhere on both paths.
func TestAuditNoPerfectMatching(t *testing.T) {
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(3), hierarchy.Flat(2)}
	schema := table.MustSchema(
		table.MustAttribute("A", []string{"x", "y", "z"}),
		table.MustAttribute("B", []string{"p", "q"}),
	)
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(schema)
	tbl.MustAppend(table.Record{0, 0})
	tbl.MustAppend(table.Record{1, 0})
	tbl.MustAppend(table.Record{2, 1})
	g := table.NewGen(schema, 3)
	for i := range g.Records {
		g.Records[i][0] = hiers[0].LeafOf(0)
		g.Records[i][1] = hiers[1].Root()
	}
	if hasPerfectMatching(naiveBuildGraph(s, tbl, g), g.Len()) {
		t.Fatal("fixture should have no perfect matching")
	}
	assertAuditMatchesOracle(t, "no-perfect-matching", s, tbl, g, 2, []int{0, 1, 0})
	if rep := anonymity.Check(s, tbl, g, 1); rep.MinMatches != 0 || rep.Global1K {
		t.Errorf("Check = %+v, want no matches", rep)
	}
}

// TestIntersectionShuffledIDs runs the intersection attack over three
// overlapping releases whose individual ids are shuffled, sparse and not in
// position order, against the oracle.
func TestIntersectionShuffledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, tbl, g, _ := randomAudit(rng, 3, 40, 90)
	n := tbl.Len()
	// Individual p has id 1000 + 7·perm[p]: sparse and shuffled.
	perm := rng.Perm(n)
	id := func(p int) int { return 1000 + 7*perm[p] }
	sensitive := make([]int, 1000+7*n)
	for i := range sensitive {
		sensitive[i] = rng.Intn(2)
	}
	var releases []attack.Release
	for _, window := range [][2]int{{0, 60}, {20, 80}, {35, 90}} {
		rel := attack.Release{Space: s, Tbl: table.New(tbl.Schema), Gen: table.NewGen(g.Schema, 0)}
		// Each release lists its individuals in its own shuffled order.
		for _, p := range rng.Perm(window[1] - window[0]) {
			p += window[0]
			rel.Tbl.MustAppend(tbl.Records[p])
			rel.Gen.Records = append(rel.Gen.Records, g.Records[p].Clone())
			rel.IDs = append(rel.IDs, id(p))
		}
		releases = append(releases, rel)
	}
	got, err := attack.SimulateIntersection(releases, sensitive)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveIntersection(releases, sensitive)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SimulateIntersection = %+v, oracle %+v", got, want)
	}
	three := 0
	for _, o := range got {
		if o.Releases == 3 {
			three++
		}
	}
	if len(got) != n || three != 25 {
		t.Errorf("%d individuals, %d in all three releases; want %d and 25", len(got), three, n)
	}
}

// scrambleRows returns a copy of g whose rows at about a third of the
// positions are shuffled among those positions: the release is no longer
// positional, but the shuffle is still a perfect matching. With broken, one
// row is then overwritten with an all-leaf tuple that no record of tbl
// holds, when one turns up in 20 draws; no record is consistent with that
// row, so no perfect matching is left.
func scrambleRows(rng *rand.Rand, hiers []*hierarchy.Hierarchy, tbl *table.Table, g *table.GenTable, broken bool) *table.GenTable {
	out := table.NewGen(g.Schema, g.Len())
	var picked []int
	for i, row := range g.Records {
		copy(out.Records[i], row)
		if rng.Intn(3) == 0 {
			picked = append(picked, i)
		}
	}
	for a, b := range rng.Perm(len(picked)) {
		copy(out.Records[picked[a]], g.Records[picked[b]])
	}
	if !broken || out.Len() == 0 {
		return out
	}
	held := make(map[string]bool)
	for _, r := range tbl.Records {
		held[fmt.Sprint(r)] = true
	}
	for tries := 0; tries < 20; tries++ {
		r := make(table.Record, len(hiers))
		for a, h := range hiers {
			r[a] = rng.Intn(h.NumValues())
		}
		if !held[fmt.Sprint(r)] {
			j := rng.Intn(out.Len())
			for a, h := range hiers {
				out.Records[j][a] = h.LeafOf(r[a])
			}
			break
		}
	}
	return out
}

// TestAuditNonPositional compares the audit with the oracle on releases
// whose rows are partly shuffled, with and without a row no record is
// consistent with. The matches then come from a Hopcroft–Karp matching
// instead of the identity, or are zero; the test requires both cases to
// occur.
func TestAuditNonPositional(t *testing.T) {
	shuffled, none := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, tbl, g, sensitive := randomAudit(rng, 1+rng.Intn(4), 5+rng.Intn(60), 90)
		for _, broken := range []bool{false, true} {
			h := scrambleRows(rng, s.Hiers, tbl, g, broken)
			switch {
			case !hasPerfectMatching(naiveBuildGraph(s, tbl, h), h.Len()):
				none++
			case !anonymity.IsGeneralizationOf(s, tbl, h):
				shuffled++
			}
			assertAuditMatchesOracle(t, fmt.Sprintf("seed=%d broken=%v", seed, broken), s, tbl, h, 2, sensitive)
		}
	}
	if shuffled == 0 || none == 0 {
		t.Errorf("%d releases matched only off the identity, %d had no perfect matching; want both > 0", shuffled, none)
	}
}

// TestAuditSingletonMatchedElsewhere: the one-row class {1} is matched to
// record 1, not to record 0 at its position, since record 0 is not
// consistent with it. Record 1 is pinned to that row; records 0 and 2
// share the two suppressed rows.
func TestAuditSingletonMatchedElsewhere(t *testing.T) {
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(3)}
	schema := table.MustSchema(table.MustAttribute("A", []string{"x", "y", "z"}))
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(schema)
	for v := 0; v < 3; v++ {
		tbl.MustAppend(table.Record{v})
	}
	g := table.NewGen(schema, 3)
	g.Records[0][0] = hiers[0].LeafOf(1)
	g.Records[1][0] = hiers[0].Root()
	g.Records[2][0] = hiers[0].Root()
	if got := anonymity.MatchCounts(s, tbl, g); !slices.Equal(got, []int{2, 1, 2}) {
		t.Errorf("MatchCounts = %v, want [2 1 2]", got)
	}
	assertAuditMatchesOracle(t, "singleton-matched-elsewhere", s, tbl, g, 2, []int{0, 1, 1})
}

// naiveAllowedCounts is the paper's per-edge formulation of the matches
// on the graph with the left adjacency lists adj and nRight right nodes:
// edge (u, v) is a match iff the graph without u and v still has a perfect
// matching, one Hopcroft–Karp per edge.
func naiveAllowedCounts(adj [][]int, nRight int) []int {
	counts := make([]int, len(adj))
	if len(adj) != nRight {
		return counts
	}
	for u := range counts {
		for _, v := range adj[u] {
			sub := make([][]int, 0, len(adj)-1)
			for u2, vs := range adj {
				if u2 == u {
					continue
				}
				var row []int
				for _, v2 := range vs {
					if v2 != v {
						row = append(row, v2-btoi(v2 > v))
					}
				}
				sub = append(sub, row)
			}
			if hasPerfectMatching(sub, nRight-1) {
				counts[u]++
			}
		}
	}
	return counts
}

// btoi is 1 for true and 0 for false.
func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestMatchCountsPerEdge checks the class-quotient counts of the second
// adversary and of the refinement attack against the per-edge formulation
// on positional, shuffled and broken releases of at most 40 records.
func TestMatchCountsPerEdge(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, tbl, g, _ := randomAudit(rng, 1+rng.Intn(3), 3+rng.Intn(20), 40)
		for leg, h := range []*table.GenTable{g, scrambleRows(rng, s.Hiers, tbl, g, false), scrambleRows(rng, s.Hiers, tbl, g, true)} {
			if got, want := anonymity.MatchCounts(s, tbl, h), naiveAllowedCounts(naiveBuildGraph(s, tbl, h), h.Len()); !slices.Equal(got, want) {
				t.Fatalf("seed %d leg %d: MatchCounts = %v, per-edge %v", seed, leg, got, want)
			}
			got, _, err := attack.SimulateRefinement(s.Hiers, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveAllowedCounts(naiveOverlapGraph(s.Hiers, h), h.Len()); !slices.Equal(got, want) {
				t.Fatalf("seed %d leg %d: refinement counts = %v, per-edge %v", seed, leg, got, want)
			}
		}
	}
}

// FuzzConsistencyGraph compares the audit with the naive oracle on random
// hierarchies and releases of up to 200 records, and on two non-positional
// variants of each: partly shuffled rows, and those with a row no record is
// consistent with.
func FuzzConsistencyGraph(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(10), uint8(30), uint8(2))
	f.Add(int64(2), uint8(1), uint8(64), uint8(100), uint8(3))
	f.Add(int64(3), uint8(5), uint8(129), uint8(200), uint8(5))
	f.Add(int64(4), uint8(2), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, attrsRaw, classesRaw, nRaw, kRaw uint8) {
		attrs := 1 + int(attrsRaw)%5
		classes := 1 + int(classesRaw)%200
		n := max(classes, int(nRaw)%201)
		k := 1 + int(kRaw)%6
		rng := rand.New(rand.NewSource(seed))
		s, tbl, g, sensitive := randomAudit(rng, attrs, classes, n)
		name := fmt.Sprintf("seed=%d attrs=%d n=%d", seed, attrs, tbl.Len())
		assertAuditMatchesOracle(t, name, s, tbl, g, k, sensitive)
		for _, broken := range []bool{false, true} {
			h := scrambleRows(rng, s.Hiers, tbl, g, broken)
			assertAuditMatchesOracle(t, fmt.Sprintf("%s shuffled broken=%v", name, broken), s, tbl, h, k, sensitive)
		}
	})
}

// auditSink keeps the benchmarked Check calls from being optimised away.
var auditSink anonymity.Report

var auditBench struct {
	once sync.Once
	f    auditFixture
	g    *table.GenTable
}

// auditBenchRelease is the k=10 release of ADT n=5000 that BenchmarkAudit
// and BenchmarkAuditRef audit, made once per process.
func auditBenchRelease(b *testing.B) (auditFixture, *table.GenTable) {
	auditBench.once.Do(func() {
		auditBench.f = newAuditFixture(b, datagen.Adult(5000, 1))
		auditBench.g = auditBench.f.release(b, "k", 10)
	})
	return auditBench.f, auditBench.g
}

// BenchmarkAudit is the audit of a k-anonymous release — Check plus
// EvaluateAttacks, the work of kanon's -verify and -attack — on ADT n=5000,
// k=10. BenchmarkAuditRef runs the naive oracle on the same release, so the
// in-run ratio is the speed-up of reading the audit off row classes.
func BenchmarkAudit(b *testing.B) {
	f, g := auditBenchRelease(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditSink = anonymity.Check(f.s, f.ds.Table, g, 10)
		if _, err := EvaluateAttacks(f.s, f.ds.Table, g, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAuditRef(b *testing.B) {
	f, g := auditBenchRelease(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditSink = naiveCheck(f.s, f.ds.Table, g, 10)
		naiveEvaluateAttacks(b, f.s, f.ds.Table, g, 10, nil)
	}
}
