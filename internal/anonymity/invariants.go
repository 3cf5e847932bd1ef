package anonymity

import (
	"fmt"

	"kanon/internal/cluster"
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
		if !c.Closure.Equal(want) {
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

// Claim names the anonymity definition an algorithm's output claims, for
// VerifyClaim.
type Claim string

// The verifiable claims: classical k-anonymity (Definition 4.1), the
// asymmetric (1,k) and (k,1) notions and their conjunction (k,k)
// (Definition 4.4), and global (1,k)-anonymity (Definition 4.6).
const (
	ClaimK        Claim = "k"
	Claim1K       Claim = "1k"
	ClaimK1       Claim = "k1"
	ClaimKK       Claim = "kk"
	ClaimGlobal1K Claim = "global1k"
)

// VerifyClaim checks a generalized table against the claimed anonymity
// definition at parameter k, after first requiring g to be a positional
// generalization of tbl (Definition 3.2) — every algorithm in this
// repository preserves record positions. The first violated requirement is
// returned; nil means the claim holds.
func VerifyClaim(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int, claim Claim) error {
	if !IsGeneralizationOf(s, tbl, g) {
		return fmt.Errorf("output is not a positional generalization of the input")
	}
	switch claim {
	case ClaimK:
		if !IsKAnonymous(g, k) {
			return fmt.Errorf("output is not %d-anonymous", k)
		}
	case Claim1K:
		if !Is1K(s, tbl, g, k) {
			return fmt.Errorf("output is not (1,%d)-anonymous", k)
		}
	case ClaimK1:
		if !IsK1(s, tbl, g, k) {
			return fmt.Errorf("output is not (%d,1)-anonymous", k)
		}
	case ClaimKK:
		if !Is1K(s, tbl, g, k) {
			return fmt.Errorf("output is not (1,%d)-anonymous, so not (%d,%d)-anonymous", k, k, k)
		}
		if !IsK1(s, tbl, g, k) {
			return fmt.Errorf("output is not (%d,1)-anonymous, so not (%d,%d)-anonymous", k, k, k)
		}
	case ClaimGlobal1K:
		if !IsGlobal1K(s, tbl, g, k) {
			return fmt.Errorf("output is not globally (1,%d)-anonymous", k)
		}
	default:
		return fmt.Errorf("unknown claim %q", claim)
	}
	return nil
}
