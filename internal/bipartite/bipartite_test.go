package bipartite

import (
	"math/rand"
	"testing"
)

func TestGraphBasics(t *testing.T) {
	g := New(2, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 2)
	g.AddEdge(1, 1)
	if g.nLeft != 2 || g.nRight != 3 || g.NumEdges() != 3 {
		t.Errorf("graph dims wrong: %d %d %d", g.nLeft, g.nRight, g.NumEdges())
	}
	if !g.HasEdge(0, 2) || g.HasEdge(1, 2) {
		t.Error("HasEdge wrong")
	}
	if len(g.Neighbors(0)) != 2 {
		t.Error("Neighbors wrong")
	}
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("Clone shares storage")
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.AddEdge(0, 1)
}

func TestHopcroftKarpPerfect(t *testing.T) {
	// A 3x3 cycle-ish graph with a unique perfect matching structure.
	g := New(3, 3)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 2)
	m := HopcroftKarp(g)
	if m.Size != 3 || !m.IsPerfect() {
		t.Fatalf("matching size = %d, want 3", m.Size)
	}
	// The only perfect matching is the identity.
	for u := 0; u < 3; u++ {
		if m.MatchL[u] != u {
			t.Errorf("MatchL[%d] = %d, want %d", u, m.MatchL[u], u)
		}
	}
}

func TestHopcroftKarpNeedsAugmenting(t *testing.T) {
	// Greedy matching fails here; augmenting paths are required.
	// L0-{R0}, L1-{R0,R1}, L2-{R1,R2}.
	g := New(3, 3)
	g.AddEdge(1, 0) // greedy would take this first if visited in order
	g.AddEdge(1, 1)
	g.AddEdge(0, 0)
	g.AddEdge(2, 1)
	g.AddEdge(2, 2)
	m := HopcroftKarp(g)
	if m.Size != 3 {
		t.Errorf("matching size = %d, want 3", m.Size)
	}
}

func TestHopcroftKarpImperfect(t *testing.T) {
	// Two left nodes share the single right neighbour.
	g := New(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 0)
	m := HopcroftKarp(g)
	if m.Size != 1 || m.IsPerfect() {
		t.Errorf("matching size = %d, want 1", m.Size)
	}
	if HopcroftKarp(g).IsPerfect() {
		t.Error("IsPerfect should be false")
	}
}

func TestHasPerfectMatchingUnequalSides(t *testing.T) {
	g := New(2, 3)
	g.AddEdge(0, 0)
	g.AddEdge(1, 1)
	if HopcroftKarp(g).IsPerfect() {
		t.Error("unequal sides cannot have a perfect matching")
	}
}

func TestHopcroftKarpEmpty(t *testing.T) {
	g := New(0, 0)
	m := HopcroftKarp(g)
	if m.Size != 0 || !m.IsPerfect() {
		t.Error("empty graph should have a (vacuous) perfect matching")
	}
}

// bruteMaxMatching computes the maximum matching size by exhaustive
// backtracking (for graphs with ≤ ~8 left nodes).
func bruteMaxMatching(g *Graph) int {
	used := make([]bool, g.nRight)
	var rec func(u int) int
	rec = func(u int) int {
		if u == g.nLeft {
			return 0
		}
		best := rec(u + 1) // leave u unmatched
		for _, v := range g.Neighbors(u) {
			if used[v] {
				continue
			}
			used[v] = true
			if got := 1 + rec(u+1); got > best {
				best = got
			}
			used[v] = false
		}
		return best
	}
	return rec(0)
}

func TestHopcroftKarpMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		nl := 1 + rng.Intn(6)
		nr := 1 + rng.Intn(6)
		g := New(nl, nr)
		for u := 0; u < nl; u++ {
			for v := 0; v < nr; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, v)
				}
			}
		}
		m := HopcroftKarp(g)
		if want := bruteMaxMatching(g); m.Size != want {
			t.Fatalf("trial %d: HK size %d, brute force %d", trial, m.Size, want)
		}
		// Matching consistency.
		for u, v := range m.MatchL {
			if v >= 0 && m.MatchR[v] != u {
				t.Fatalf("trial %d: inconsistent matching arrays", trial)
			}
			if v >= 0 && !g.HasEdge(u, v) {
				t.Fatalf("trial %d: matched non-edge", trial)
			}
		}
	}
}

func TestSCCSimple(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 is one SCC; 3 alone; 2 -> 3.
	adj := [][]int{{1}, {2}, {0, 3}, {}}
	comp := SCC(adj)
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("cycle nodes in different components")
	}
	if comp[3] == comp[0] {
		t.Error("node 3 should be its own component")
	}
}

func TestSCCDisconnected(t *testing.T) {
	adj := [][]int{{}, {}, {}}
	comp := SCC(adj)
	seen := map[int]bool{}
	for _, c := range comp {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Errorf("expected 3 components, got %d", len(seen))
	}
}

func TestSCCSelfLoopAndChain(t *testing.T) {
	// 0->0 self loop, 1->2, 2->1 pair.
	adj := [][]int{{0}, {2}, {1}}
	comp := SCC(adj)
	if comp[1] != comp[2] {
		t.Error("2-cycle not merged")
	}
	if comp[0] == comp[1] {
		t.Error("self-loop merged with pair")
	}
}

// sccBrute computes components via transitive reachability.
func sccBrute(adj [][]int) []int {
	n := len(adj)
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
		stack := []int{i}
		reach[i][i] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !reach[i][v] {
					reach[i][v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		comp[i] = next
		for j := i + 1; j < n; j++ {
			if reach[i][j] && reach[j][i] {
				comp[j] = next
			}
		}
		next++
	}
	return comp
}

func TestSCCMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		adj := make([][]int, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if rng.Float64() < 0.2 {
					adj[u] = append(adj[u], v)
				}
			}
		}
		got := SCC(adj)
		want := sccBrute(adj)
		// Compare as partitions.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (got[i] == got[j]) != (want[i] == want[j]) {
					t.Fatalf("trial %d: SCC partition differs at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestAllowedEdgesIdentityPlus(t *testing.T) {
	// Identity edges plus one extra edge (0,1) that cannot be completed:
	// matching 0-1 leaves right-0 and left-1 to pair, but edge (1,0) is
	// absent.
	g := New(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	allowed, err := AllowedEdges(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(allowed[0]) != 1 || allowed[0][0] != 0 {
		t.Errorf("allowed[0] = %v, want [0]", allowed[0])
	}
	if len(allowed[1]) != 1 || allowed[1][0] != 1 {
		t.Errorf("allowed[1] = %v, want [1]", allowed[1])
	}
}

func TestAllowedEdgesCycle(t *testing.T) {
	// A 2x2 complete bipartite graph: every edge is in some perfect
	// matching.
	g := New(2, 2)
	for u := 0; u < 2; u++ {
		for v := 0; v < 2; v++ {
			g.AddEdge(u, v)
		}
	}
	allowed, err := AllowedEdges(g)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		if len(allowed[u]) != 2 {
			t.Errorf("allowed[%d] = %v, want both", u, allowed[u])
		}
	}
}

func TestAllowedEdgesNoPerfectMatching(t *testing.T) {
	g := New(2, 2)
	g.AddEdge(0, 0)
	g.AddEdge(1, 0)
	if _, err := AllowedEdges(g); err == nil {
		t.Error("expected error without perfect matching")
	}
	if _, err := AllowedEdgesNaive(g); err == nil {
		t.Error("expected error without perfect matching (naive)")
	}
	uneq := New(1, 2)
	uneq.AddEdge(0, 0)
	if _, err := AllowedEdges(uneq); err == nil {
		t.Error("expected error for unequal sides")
	}
}

func TestAllowedEdgesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	trials := 0
	for trials < 100 {
		n := 2 + rng.Intn(5)
		g := New(n, n)
		// Identity matching guaranteed (mirrors the positional assumption
		// of Algorithm 6) plus random extra edges.
		for u := 0; u < n; u++ {
			g.AddEdge(u, u)
			for v := 0; v < n; v++ {
				if v != u && rng.Float64() < 0.3 {
					g.AddEdge(u, v)
				}
			}
		}
		fast, err := AllowedEdges(g)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := AllowedEdgesNaive(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			if len(fast[u]) != len(slow[u]) {
				t.Fatalf("trial %d: allowed[%d]: SCC %v vs naive %v", trials, u, fast[u], slow[u])
			}
			inSlow := make(map[int]bool)
			for _, v := range slow[u] {
				inSlow[v] = true
			}
			for _, v := range fast[u] {
				if !inSlow[v] {
					t.Fatalf("trial %d: edge (%d,%d) allowed by SCC, not by naive", trials, u, v)
				}
			}
		}
		trials++
	}
}

func TestAllowedEdgesContainMatching(t *testing.T) {
	// Every matched edge of any perfect matching must be allowed.
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		g := New(n, n)
		for u := 0; u < n; u++ {
			g.AddEdge(u, u)
			if v := rng.Intn(n); v != u {
				g.AddEdge(u, v)
			}
		}
		allowed, err := AllowedEdges(g)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			found := false
			for _, v := range allowed[u] {
				if v == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("identity edge (%d,%d) not allowed", u, u)
			}
		}
	}
}

// TestAllowedCounts counts each left node's allowed edges on a complete
// graph, a path whose only perfect matching is the identity, and a graph
// with no perfect matching, where AllowedEdges fails.
func TestAllowedCounts(t *testing.T) {
	// Complete 3x3 graph: every edge extends to a perfect matching.
	g := New(3, 3)
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			g.AddEdge(u, v)
		}
	}
	allowed, err := AllowedEdges(g)
	if err != nil {
		t.Fatal("complete graph should have a perfect matching")
	}
	for u, vs := range allowed {
		if len(vs) != 3 {
			t.Errorf("counts[%d] = %d, want 3", u, len(vs))
		}
	}
	// Path-shaped graph 0-0, {0,1}-1 ... the forced matching is identity,
	// and only identity edges survive.
	p := New(3, 3)
	p.AddEdge(0, 0)
	p.AddEdge(1, 0)
	p.AddEdge(1, 1)
	p.AddEdge(2, 1)
	p.AddEdge(2, 2)
	allowed, err = AllowedEdges(p)
	if err != nil {
		t.Fatal("path graph has the identity matching")
	}
	for u, vs := range allowed {
		if len(vs) != 1 {
			t.Errorf("path counts[%d] = %d, want 1", u, len(vs))
		}
	}
	// No perfect matching: no edge is a match.
	n := New(2, 2)
	n.AddEdge(0, 0)
	n.AddEdge(1, 0)
	if _, err := AllowedEdges(n); err == nil {
		t.Error("graph without perfect matching reported matches")
	}
}

func TestFromAdjacency(t *testing.T) {
	adj := [][]int{{0, 2}, {}, {1}}
	g := FromAdjacency(3, adj)
	if g.nLeft != 3 || g.nRight != 3 || g.NumEdges() != 3 {
		t.Errorf("graph dims wrong: %d %d %d", g.nLeft, g.nRight, g.NumEdges())
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 1) || g.HasEdge(1, 0) {
		t.Error("HasEdge wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for an out-of-range neighbour")
		}
	}()
	FromAdjacency(2, adj)
}
