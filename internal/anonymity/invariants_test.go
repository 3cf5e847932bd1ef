package anonymity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// VerifyClustering checks the structural invariants every clustering-based
// anonymizer (AgglomerateStatsCtx, ForestCtx, the partitioned variant) must
// establish:
//
//   - the clusters partition the record set (disjoint cover of [0, n));
//   - every cluster has at least k members;
//   - every cluster's closure is exactly the closure of its members — it
//     covers each member, and it is minimal;
//   - every cluster's cached Cost matches the space's cost of its closure.
//
// The first violated invariant is returned; nil means all hold.
func VerifyClustering(s *cluster.Space, tbl *table.Table, clusters []*cluster.Cluster, k int) error {
	n := tbl.Len()
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	for ci, c := range clusters {
		if c.Size() < k {
			return fmt.Errorf("cluster %d has %d members, want ≥ k=%d", ci, c.Size(), k)
		}
		for _, i := range c.Members {
			if i < 0 || i >= n {
				return fmt.Errorf("cluster %d contains record %d, table has %d records", ci, i, n)
			}
			if owner[i] >= 0 {
				return fmt.Errorf("record %d is in clusters %d and %d", i, owner[i], ci)
			}
			owner[i] = ci
		}
		want := s.ClosureOf(tbl, c.Members)
		if !slices.Equal(c.Closure, want) {
			return fmt.Errorf("cluster %d closure %v is not the closure of its members %v", ci, c.Closure, want)
		}
		if c.Cost != s.Cost(c.Closure) {
			return fmt.Errorf("cluster %d caches cost %v, closure costs %v", ci, c.Cost, s.Cost(c.Closure))
		}
	}
	for i, ci := range owner {
		if ci < 0 {
			return fmt.Errorf("record %d is in no cluster", i)
		}
	}
	return nil
}

// invariantSpace builds a seeded random 3-attribute table with
// interval/subset hierarchies under the LM measure, the shared fixture of
// the property tests below.
func invariantSpace(t *testing.T, seed int64, n int) (*cluster.Space, *table.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := table.MustSchema(
		table.MustAttribute("a", []string{"0", "1", "2", "3", "4", "5", "6", "7"}),
		table.MustAttribute("b", []string{"x", "y", "z", "w"}),
		table.MustAttribute("c", []string{"p", "q"}),
	)
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		tbl.MustAppend(table.Record{rng.Intn(8), rng.Intn(4), rng.Intn(2)})
	}
	ha, err := hierarchy.Intervals(8, []int{2, 4}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hb, err := hierarchy.FromSubsets(4, []hierarchy.Subset{{Values: []int{0, 1}}, {Values: []int{2, 3}}}, "*")
	if err != nil {
		t.Fatal(err)
	}
	hiers := []*hierarchy.Hierarchy{ha, hb, hierarchy.Flat(2)}
	s, err := cluster.NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// TestInvariantsAgglomerate: over seeded random tables, every clustering of
// the agglomerative engine — basic and modified, sequential and parallel —
// satisfies the structural invariants, and its generalization satisfies
// claimed k-anonymity.
func TestInvariantsAgglomerate(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{30, 90} {
			s, tbl := invariantSpace(t, seed, n)
			for _, k := range []int{2, 7} {
				for _, modified := range []bool{false, true} {
					for _, workers := range []int{1, 4} {
						clusters, _, err := cluster.AgglomerateStatsCtx(nil, s, tbl, cluster.AggloOptions{
							K: k, Distance: cluster.D3{}, Modified: modified, Workers: workers,
						})
						if err != nil {
							t.Fatalf("seed=%d n=%d k=%d modified=%v workers=%d: %v", seed, n, k, modified, workers, err)
						}
						if err := VerifyClustering(s, tbl, clusters, k); err != nil {
							t.Errorf("seed=%d n=%d k=%d modified=%v workers=%d: %v", seed, n, k, modified, workers, err)
						}
						g := cluster.ToGenTable(tbl.Schema, tbl.Len(), clusters)
						if rep := Check(s, tbl, g, k); !rep.Generalization || !rep.KAnonymous {
							t.Errorf("seed=%d n=%d k=%d modified=%v workers=%d: %v", seed, n, k, modified, workers, rep)
						}
					}
				}
			}
		}
	}
}

// TestInvariantsForest: the forest baseline's clusterings and outputs
// satisfy the same invariants and claim.
func TestInvariantsForest(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		s, tbl := invariantSpace(t, seed, 80)
		for _, k := range []int{2, 5} {
			g, clusters, err := core.ForestCtx(nil, s, tbl, k)
			if err != nil {
				t.Fatalf("seed=%d k=%d: %v", seed, k, err)
			}
			if err := VerifyClustering(s, tbl, clusters, k); err != nil {
				t.Errorf("seed=%d k=%d: %v", seed, k, err)
			}
			if rep := Check(s, tbl, g, k); !rep.Generalization || !rep.KAnonymous {
				t.Errorf("seed=%d k=%d: %v", seed, k, rep)
			}
		}
	}
}

// TestInvariantsK1: Algorithms 3 and 4 claim (k,1)-anonymity; their outputs
// must verify against the definition at every worker count.
func TestInvariantsK1(t *testing.T) {
	for _, seed := range []int64{6, 7} {
		s, tbl := invariantSpace(t, seed, 60)
		for _, k := range []int{2, 5} {
			for _, workers := range []int{1, 4} {
				gn, err := core.K1NearestCtx(nil, s, tbl, k, workers)
				if err != nil {
					t.Fatalf("nearest seed=%d k=%d workers=%d: %v", seed, k, workers, err)
				}
				if rep := Check(s, tbl, gn, k); !rep.Generalization || !rep.KOne {
					t.Errorf("nearest seed=%d k=%d workers=%d: %v", seed, k, workers, rep)
				}
				ge, err := core.K1ExpandCtx(nil, s, tbl, k, workers)
				if err != nil {
					t.Fatalf("expand seed=%d k=%d workers=%d: %v", seed, k, workers, err)
				}
				if rep := Check(s, tbl, ge, k); !rep.Generalization || !rep.KOne {
					t.Errorf("expand seed=%d k=%d workers=%d: %v", seed, k, workers, rep)
				}
			}
		}
	}
}

// TestInvariantsKK: the coupled pipelines claim (k,k)-anonymity.
func TestInvariantsKK(t *testing.T) {
	for _, seed := range []int64{8, 9} {
		s, tbl := invariantSpace(t, seed, 60)
		for _, k := range []int{2, 5} {
			for _, alg := range []core.K1Algorithm{core.K1ByNearest, core.K1ByExpansion} {
				for _, workers := range []int{1, 4} {
					g, err := core.KKAnonymizeCtx(nil, s, tbl, k, alg, nil, nil, workers)
					if err != nil {
						t.Fatalf("%s seed=%d k=%d workers=%d: %v", alg, seed, k, workers, err)
					}
					if rep := Check(s, tbl, g, k); !rep.Generalization || !rep.KK {
						t.Errorf("%s seed=%d k=%d workers=%d: %v", alg, seed, k, workers, rep)
					}
				}
			}
		}
	}
}

// TestVerifyClusteringRejects: the checker actually fires on broken
// clusterings — undersized clusters, overlapping members, missing records,
// stale closures and stale costs.
func TestVerifyClusteringRejects(t *testing.T) {
	s, tbl := invariantSpace(t, 10, 20)
	good, _, err := cluster.AgglomerateStatsCtx(nil, s, tbl, cluster.AggloOptions{K: 4, Distance: cluster.D3{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyClustering(s, tbl, good, 4); err != nil {
		t.Fatalf("valid clustering rejected: %v", err)
	}

	breakers := []struct {
		name string
		mut  func(cs []*cluster.Cluster) []*cluster.Cluster
	}{
		{"undersized", func(cs []*cluster.Cluster) []*cluster.Cluster {
			cs[0] = s.NewCluster(tbl, cs[0].Members[:1])
			return cs
		}},
		{"overlap", func(cs []*cluster.Cluster) []*cluster.Cluster {
			cs[0] = s.NewCluster(tbl, append(append([]int(nil), cs[0].Members...), cs[1].Members[0]))
			return cs
		}},
		{"missing record", func(cs []*cluster.Cluster) []*cluster.Cluster {
			return cs[1:]
		}},
		{"stale closure", func(cs []*cluster.Cluster) []*cluster.Cluster {
			c := *cs[0]
			c.Closure = c.Closure.Clone()
			if root := s.Hiers[0].Root(); c.Closure[0] != root {
				c.Closure[0] = root
			} else {
				c.Closure[0] = s.Hiers[0].LeafOf(tbl.Records[c.Members[0]][0])
			}
			cs[0] = &c
			return cs
		}},
		{"stale cost", func(cs []*cluster.Cluster) []*cluster.Cluster {
			c := *cs[0]
			c.Cost += 1
			cs[0] = &c
			return cs
		}},
	}
	for _, b := range breakers {
		cs := b.mut(append([]*cluster.Cluster(nil), good...))
		if err := VerifyClustering(s, tbl, cs, 4); err == nil {
			t.Errorf("%s clustering passed verification", b.name)
		}
	}
}
