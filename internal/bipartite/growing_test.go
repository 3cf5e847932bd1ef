package bipartite

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// randomPerfect returns the ascending adjacency lists of an n×n graph with
// a perfect matching (a random permutation) and about deg more edges per
// left node.
func randomPerfect(rng *rand.Rand, n, deg int) [][]int {
	perm := rng.Perm(n)
	adj := make([][]int, n)
	for u := range adj {
		adj[u] = []int{perm[u]}
		for range deg {
			if v := rng.Intn(n); !slices.Contains(adj[u], v) {
				adj[u] = append(adj[u], v)
			}
		}
		slices.Sort(adj[u])
	}
	return adj
}

// checkGrowing compares gr, whose graph must equal ref, against
// AllowedEdges on ref (and against AllowedEdgesNaive when naive is set):
// an early-stopped call must return at least min(k, matches) distinct true
// matches, all of them when there are fewer than k; an exhaustive search
// exactly the matches, after which all of them are certified and a call
// for at most that many is answered without a search.
func checkGrowing(t *testing.T, label string, gr *Growing, ref [][]int, naive bool, rng *rand.Rand) {
	t.Helper()
	n := len(ref)
	want, err := AllowedEdges(FromAdjacency(n, ref))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if naive {
		slow, err := AllowedEdgesNaive(FromAdjacency(n, ref))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for u := range slow {
			if !slices.Equal(slow[u], want[u]) {
				t.Fatalf("%s: node %d: AllowedEdges %v, naive %v", label, u, want[u], slow[u])
			}
		}
	}
	for u := range ref {
		if !slices.Equal(gr.Neighbors(u), ref[u]) {
			t.Fatalf("%s: node %d neighbours %v, want %v", label, u, gr.Neighbors(u), ref[u])
		}
		k := 1 + rng.Intn(len(want[u])+1)
		some, _ := gr.Matches(u, k)
		if len(some) < min(k, len(want[u])) {
			t.Fatalf("%s: node %d: %d matches at k=%d, want ≥ %d", label, u, len(some), k, min(k, len(want[u])))
		}
		sorted := sortedCopy(some)
		if len(slices.Compact(slices.Clone(sorted))) != len(sorted) {
			t.Fatalf("%s: node %d: duplicate matches %v", label, u, some)
		}
		for _, v := range sorted {
			if _, ok := slices.BinarySearch(want[u], v); !ok {
				t.Fatalf("%s: node %d: %d is not a match (k=%d)", label, u, v, k)
			}
		}
		if len(want[u]) < k && !slices.Equal(sorted, want[u]) {
			t.Fatalf("%s: node %d: %v at k=%d, want all of %v", label, u, sorted, k, want[u])
		}
		all, visits := gr.Matches(u, n+1)
		got := sortedCopy(all)
		if !slices.Equal(got, want[u]) {
			t.Fatalf("%s: node %d matches %v, want %v", label, u, got, want[u])
		}
		if visits < 1 || visits > n {
			t.Fatalf("%s: node %d search visited %d of %d left nodes", label, u, visits, n)
		}
		cert, visits := gr.Matches(u, len(want[u]))
		if visits != 0 || !slices.Equal(sortedCopy(cert), want[u]) {
			t.Fatalf("%s: node %d after a full search: %v with %d visits, want all of %v certified", label, u, sortedCopy(cert), visits, want[u])
		}
	}
}

func sortedCopy(s []int) []int {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// growAndCheck builds a Growing on a random graph with a perfect matching,
// then inserts random edges, checking every left node after each insertion.
func growAndCheck(t *testing.T, label string, rng *rand.Rand, n, deg, inserts int) {
	t.Helper()
	ref := randomPerfect(rng, n, deg)
	adj := make([][]int, n)
	for u := range ref {
		adj[u] = slices.Clone(ref[u])
	}
	gr, allowed, err := NewGrowing(n, adj)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := AllowedEdges(FromAdjacency(n, ref))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for u := range want {
		if !slices.Equal(allowed[u], want[u]) {
			t.Fatalf("%s: node %d: NewGrowing matches %v, want %v", label, u, allowed[u], want[u])
		}
	}
	naive := n <= 40
	checkGrowing(t, label, gr, ref, naive, rng)
	for step := range inserts {
		u, v := rng.Intn(n), rng.Intn(n)
		p, present := slices.BinarySearch(ref[u], v)
		if gr.AddEdge(u, v) == present {
			t.Fatalf("%s: AddEdge(%d, %d) = %v with the edge present=%v", label, u, v, !present, present)
		}
		if !present {
			ref[u] = slices.Insert(ref[u], p, v)
		}
		checkGrowing(t, fmt.Sprintf("%s insertion %d (%d,%d)", label, step, u, v), gr, ref, naive, rng)
	}
}

// TestGrowingMatches checks match searches on growing graphs against the
// SCC method and, on small graphs, the paper's per-edge formulation.
func TestGrowingMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct{ n, deg, inserts int }{
		{1, 0, 1}, {2, 0, 3}, {6, 1, 20}, {12, 1, 40}, {25, 2, 60}, {40, 1, 80}, {150, 2, 60},
	} {
		for trial := range 3 {
			growAndCheck(t, fmt.Sprintf("n=%d deg=%d trial %d", c.n, c.deg, trial), rng, c.n, c.deg, c.inserts)
		}
	}
}

func TestNewGrowingNoPerfectMatching(t *testing.T) {
	if _, _, err := NewGrowing(3, [][]int{{0}, {0}, {1, 2}}); err == nil {
		t.Fatal("expected an error for a graph without a perfect matching")
	}
}

// FuzzGrowingMatches replays TestGrowingMatches on fuzzed graphs of at most
// 64 nodes.
func FuzzGrowingMatches(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(1), uint8(20))
	f.Add(int64(2), uint8(40), uint8(2), uint8(30))
	f.Add(int64(3), uint8(63), uint8(0), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, nb, degb, insb uint8) {
		n := 1 + int(nb)%64
		growAndCheck(t, fmt.Sprintf("seed=%d n=%d", seed, n), rand.New(rand.NewSource(seed)), n, int(degb)%4, int(insb)%64)
	})
}
