package core

import (
	"context"
	"fmt"
	"sort"

	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/resilient"
	"kanon/internal/table"
)

// PartitionedOptions configures the scalable agglomerative k-anonymizer.
type PartitionedOptions struct {
	// K is the anonymity parameter.
	K int
	// Distance is the agglomerative inter-cluster distance; defaults to D3.
	Distance cluster.Distance
	// Modified selects Algorithm 2 within each chunk.
	Modified bool
	// MaxChunk bounds the size of the chunks handed to the quadratic
	// agglomerative engine; defaults to 512.
	MaxChunk int
	// Workers caps each chunk engine's worker pool (see
	// cluster.AggloOptions.Workers).
	Workers int
	// OnShard, when set, is invoked on the driving goroutine after each
	// shard completes, with a checkpoint from which the shard's clusters
	// can be rebuilt without recomputation. Callers persist these to make a
	// failed or killed run resumable at shard granularity.
	OnShard func(resilient.ShardCheckpoint)
	// CompletedShards holds shard checkpoints from a previous run, keyed by
	// shard index. A shard whose checkpoint signature matches the current
	// parameters and record set is restored instead of recomputed; a stale
	// signature is ignored and the shard recomputed.
	CompletedShards map[int]resilient.ShardCheckpoint
}

// partitionSignature binds a shard checkpoint to the run parameters that
// shaped its clusters: everything that changes the per-chunk engine's
// output (not Workers — the engine's output is the same at every worker
// count, so a checkpoint survives a worker-count change).
func partitionSignature(opt PartitionedOptions, dist cluster.Distance, n int) string {
	return fmt.Sprintf("k=%d|dist=%s|mod=%t|n=%d", opt.K, dist.Name(), opt.Modified, n)
}

// KAnonymizePartitionedReportCtx addresses the paper's Section VII call for
// "more scalable algorithms": it recursively partitions the records
// top-down along the generalization hierarchies — Mondrian-style, but
// splitting only into permissible subsets so every part remains
// describable — until chunks fit MaxChunk, then runs the (quadratic)
// agglomerative algorithm within each chunk. Total cost drops from O(n²)
// to O(n·log n + Σ chunk²) with a modest utility penalty (quantified by
// the E19 benchmark), because records in different chunks already
// disagree on some attribute and would rarely share a cluster anyway.
//
// Every chunk runs once as a supervised shard (DESIGN.md §14). A shard
// that panics or errors stops the run with a *resilient.ShardError, a done
// ctx stops it with ctx.Err(); either way no table is returned. The
// RunReport is non-nil whenever supervision started, including on error,
// and every shard before the one that stopped the run was passed to
// OnShard, so a rerun with CompletedShards resumes from there. A nil ctx
// disables cancellation.
func KAnonymizePartitionedReportCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, opt PartitionedOptions) (*table.GenTable, []*cluster.Cluster, *resilient.RunReport, error) {
	n := tbl.Len()
	if opt.K < 1 {
		return nil, nil, nil, fmt.Errorf("core: k must be ≥ 1, got %d", opt.K)
	}
	if opt.K > n {
		return nil, nil, nil, fmt.Errorf("core: k=%d exceeds table size n=%d", opt.K, n)
	}
	dist := opt.Distance
	if dist == nil {
		dist = cluster.D3{}
	}
	maxChunk := opt.MaxChunk
	if maxChunk <= 0 {
		maxChunk = 512
	}
	if maxChunk < 2*opt.K {
		// Chunks below 2k leave the engine no freedom; clamp.
		maxChunk = 2 * opt.K
	}

	o := obs.From(ctx)
	endSplit := o.Phase(PhasePartition)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	chunks := partitionRecords(s, tbl, all, opt.K, maxChunk)
	endSplit()

	sig := partitionSignature(opt, dist, n)
	results := make([][]*cluster.Cluster, len(chunks))
	units := make([]resilient.Unit, len(chunks))
	for i, chunk := range chunks {
		units[i] = resilient.Unit{
			Index:   i,
			Records: len(chunk),
			Run: func(actx context.Context) error {
				o.Event(obs.KindChunk, PhasePartition, int64(len(chunk)))
				sub := table.New(tbl.Schema)
				for _, gi := range chunk {
					sub.Records = append(sub.Records, tbl.Records[gi])
				}
				cs, _, err := cluster.AgglomerateStatsCtx(actx, s, sub, cluster.AggloOptions{
					K:        opt.K,
					Distance: dist,
					Modified: opt.Modified,
					Workers:  opt.Workers,
				})
				if err != nil {
					return err
				}
				// Translate chunk-local member indices back to global ones.
				for _, c := range cs {
					for mi, local := range c.Members {
						c.Members[mi] = chunk[local]
					}
				}
				results[i] = cs
				if opt.OnShard != nil {
					members := make([][]int, len(cs))
					for ci, c := range cs {
						members[ci] = c.Members
					}
					opt.OnShard(resilient.ShardCheckpoint{
						Shard:    i,
						Sig:      resilient.Signature(sig, chunk),
						Clusters: members,
					})
				}
				return nil
			},
		}
		if ck, ok := opt.CompletedShards[i]; ok && ck.Sig == resilient.Signature(sig, chunk) {
			// Restore the shard from its checkpoint: closures and costs are
			// pure functions of the member sets, so the rebuilt clusters are
			// byte-identical to the computed ones. A stale signature (other
			// parameters, other records) falls through to recomputation.
			cs := make([]*cluster.Cluster, len(ck.Clusters))
			for ci, members := range ck.Clusters {
				cs[ci] = s.NewCluster(tbl, members)
			}
			results[i] = cs
			units[i].Cached = true
		}
	}

	rep, err := resilient.Supervise(ctx, units, o)
	if err != nil {
		return nil, nil, rep, err
	}
	var clusters []*cluster.Cluster
	for _, cs := range results {
		clusters = append(clusters, cs...)
	}
	g := cluster.ToGenTable(tbl.Schema, n, clusters)
	return g, clusters, rep, nil
}

// partitionRecords recursively splits the index set along hierarchy
// children until every chunk is ≤ maxChunk or no admissible split exists.
// Every produced chunk has ≥ k records.
func partitionRecords(s *cluster.Space, tbl *table.Table, records []int, k, maxChunk int) [][]int {
	if len(records) <= maxChunk {
		return [][]int{records}
	}
	parts := bestSplit(s, tbl, records, k)
	if parts == nil {
		return [][]int{records}
	}
	var out [][]int
	for _, p := range parts {
		out = append(out, partitionRecords(s, tbl, p, k, maxChunk)...)
	}
	return out
}

// bestSplit tries every attribute: records are grouped by the child of the
// chunk's closure node that covers their value; undersized groups are
// folded together (they share the parent closure anyway, so the fold stays
// describable). The attribute whose split minimizes the largest part is
// chosen; nil means no attribute yields ≥ 2 parts of size ≥ k.
func bestSplit(s *cluster.Space, tbl *table.Table, records []int, k int) [][]int {
	var best [][]int
	bestMax := len(records) + 1
	for j, h := range s.Hiers {
		// Closure node of the chunk on attribute j.
		node := h.LeafOf(tbl.Records[records[0]][j])
		for _, i := range records[1:] {
			node = h.LCA(node, h.LeafOf(tbl.Records[i][j]))
		}
		children := h.Children(node)
		if len(children) < 2 {
			continue
		}
		childIdx := make(map[int]int, len(children))
		for ci, c := range children {
			childIdx[c] = ci
		}
		groups := make([][]int, len(children))
		ok := true
		for _, i := range records {
			leaf := h.LeafOf(tbl.Records[i][j])
			// Walk up to the child of node covering this leaf.
			u := leaf
			for h.Parent(u) != node {
				u = h.Parent(u)
				if u < 0 {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			groups[childIdx[u]] = append(groups[childIdx[u]], i)
		}
		if !ok {
			continue
		}
		parts := foldSmall(groups, k)
		if len(parts) < 2 {
			continue
		}
		maxPart := 0
		for _, p := range parts {
			if len(p) > maxPart {
				maxPart = len(p)
			}
		}
		if maxPart < bestMax {
			bestMax = maxPart
			best = parts
		}
	}
	return best
}

// foldSmall merges groups smaller than k into the smallest groups until
// every part has ≥ k records (or everything collapses into one part).
// Groups are processed largest-first so the folds land on the smallest
// viable parts, keeping the split balanced.
func foldSmall(groups [][]int, k int) [][]int {
	parts := make([][]int, 0, len(groups))
	var smalls []int
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		if len(g) >= k {
			parts = append(parts, g)
		} else {
			smalls = append(smalls, g...)
		}
	}
	if len(smalls) > 0 {
		if len(smalls) >= k {
			parts = append(parts, smalls)
		} else if len(parts) > 0 {
			// Attach the leftovers to the currently smallest part.
			sort.Slice(parts, func(a, b int) bool { return len(parts[a]) < len(parts[b]) })
			parts[0] = append(parts[0], smalls...)
		} else {
			return [][]int{smalls}
		}
	}
	return parts
}
