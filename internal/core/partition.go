package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"slices"
	"sort"

	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/par"
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
	// failed or killed run resumable at shard granularity. It runs inside
	// the shard's containment: a panic in it fails the shard.
	OnShard func(ShardCheckpoint)
	// CompletedShards holds shard checkpoints from a previous run, keyed by
	// shard index. A shard whose checkpoint signature matches the current
	// parameters and record set is restored instead of recomputed; a stale
	// signature is ignored and the shard recomputed.
	CompletedShards map[int]ShardCheckpoint
}

// ShardCheckpoint is the persistable record of one completed shard: enough
// to rebuild the shard's clusters without recomputing them. Sig binds the
// checkpoint to the exact run parameters and record set, so a checkpoint
// written under different options (or after the input changed) is detected
// as stale and recomputed rather than silently reused.
type ShardCheckpoint struct {
	// Shard is the shard's index in the run.
	Shard int `json:"shard"`
	// Sig is Signature(params, records) at write time.
	Sig uint64 `json:"sig"`
	// Clusters holds the shard's clusters as global record-index sets; the
	// closures and costs are recomputed on load (they are pure functions of
	// the members).
	Clusters [][]int `json:"clusters"`
}

// ShardError reports the shard that failed a partitioned run. Cause is the
// engine's error, or the *par.TaskPanic of a contained panic, whose message
// carries only the payload's type and digest (DESIGN.md §16).
type ShardError struct {
	Shard int
	Cause error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("core: shard %d failed: %v", e.Shard, e.Cause)
}

// Unwrap exposes the underlying failure.
func (e *ShardError) Unwrap() error { return e.Cause }

// Signature hashes the run parameters and the shard's global record
// indices (FNV-1a) into the checkpoint signature. Deterministic across
// processes — no map iteration, no pointers.
func Signature(params string, records []int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, params)
	var buf [8]byte
	for _, r := range records {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	return h.Sum64()
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
// Every chunk is one shard, run in order on the calling goroutine
// (DESIGN.md §14), and takes exactly one of three paths:
//
//	checkpoint signature matches ──────▶ restored, not run
//	parent ctx done ───────────────────▶ run stops: ctx.Err()
//	run once, contained ──ok───────────▶ OnShard checkpoint
//	                    └─panic / error─▶ run stops: *ShardError
//
// A shard that fails while ctx is done stops the run with ctx.Err(), not a
// *ShardError: the run was cancelled, no shard is blamed. Either way no
// table is returned, and every shard before the one that stopped the run
// was passed to OnShard, so a rerun with CompletedShards resumes from
// there. There is no retry: a shard is a deterministic engine over a fixed
// chunk, so a second attempt would fail the same way.
//
// The third result holds the shards' record sets (global record indices,
// in shard order), also on error once the split ran. The
// resilient.shards and resilient.checkpoint_hits counters count the shards
// visited and restored. A nil ctx disables cancellation.
func KAnonymizePartitionedReportCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, opt PartitionedOptions) (*table.GenTable, []*cluster.Cluster, [][]int, error) {
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
	// One engine, with its worker pool, serves every shard the run
	// computes: its state is made for the first such shard, sized by the
	// largest chunk (not by maxChunk, which may far exceed the table), and
	// reset for each later one. Close reports the pool's scheduler gauges
	// once for the run.
	largest := 0
	for _, chunk := range chunks {
		largest = max(largest, len(chunk))
	}
	var eng *cluster.Engine
	// The shards visited, those restored from a checkpoint, and the chunks
	// handed to the engine with their records, reported once whichever way
	// the run ends.
	var shards, hits, computed, computedRecords int64
	defer func() {
		if eng != nil {
			eng.Close(o)
		}
		if shards > 0 {
			o.Counter(obs.CounterResilientShards, shards)
		}
		if hits > 0 {
			o.Counter(obs.CounterResilientCheckpointHits, hits)
		}
		if computed > 0 {
			o.Counter(PhasePartition+".chunks", computed)
			o.Counter(PhasePartition+".chunk_records", computedRecords)
		}
	}()
	sub := table.New(tbl.Schema)
	var clusters []*cluster.Cluster
	for i, chunk := range chunks {
		shards++
		if ck, ok := opt.CompletedShards[i]; ok && ck.Sig == Signature(sig, chunk) {
			// Closures and costs are pure functions of the member sets, so
			// the rebuilt clusters are byte-identical to the computed ones.
			hits++
			for _, members := range ck.Clusters {
				clusters = append(clusters, s.NewCluster(tbl, members))
			}
			continue
		}
		if par.Done(ctx) {
			return nil, nil, chunks, ctx.Err()
		}
		if eng == nil {
			eng = cluster.NewEngine(s, cluster.AggloOptions{
				K:        opt.K,
				Distance: dist,
				Modified: opt.Modified,
				Workers:  opt.Workers,
			}, largest)
		}
		var cs []*cluster.Cluster
		computed++
		computedRecords += int64(len(chunk))
		err := par.Recover(func() (err error) {
			cs, err = runShard(ctx, eng, sub, tbl, chunk)
			if err == nil && opt.OnShard != nil {
				members := make([][]int, len(cs))
				for ci, c := range cs {
					members[ci] = c.Members
				}
				opt.OnShard(ShardCheckpoint{Shard: i, Sig: Signature(sig, chunk), Clusters: members})
			}
			return err
		})
		if err != nil {
			if par.Done(ctx) {
				return nil, nil, chunks, ctx.Err()
			}
			return nil, nil, chunks, &ShardError{Shard: i, Cause: err}
		}
		clusters = append(clusters, cs...)
	}
	g := cluster.ToGenTable(tbl.Schema, n, clusters)
	return g, clusters, chunks, nil
}

// runShard runs the engine over one chunk, loaded into sub, and returns its
// clusters with global member indices.
func runShard(ctx context.Context, eng *cluster.Engine, sub, tbl *table.Table, chunk []int) ([]*cluster.Cluster, error) {
	sub.Records = sub.Records[:0]
	for _, gi := range chunk {
		sub.Records = append(sub.Records, tbl.Records[gi])
	}
	cs, _, err := eng.Run(ctx, sub)
	if err != nil {
		return nil, err
	}
	// Translate chunk-local member indices back to global ones.
	for _, c := range cs {
		for mi, local := range c.Members {
			c.Members[mi] = chunk[local]
		}
	}
	return cs, nil
}

// LoadLog reads a JSONL log, handing each non-blank line to decode in file
// order; a missing file is an empty log. A line decode rejects is a torn
// write. As the last line — the signature of a run killed mid-write — it is
// dropped and truncated away from the file, so the appends of a resumed run
// start on a clean line boundary instead of gluing onto the partial line;
// LoadLog returns the number of bytes it dropped. Anywhere else it is an
// error, and the file is left untouched.
func LoadLog(path string, decode func(line []byte) error) (dropped int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	for off, line := 0, 1; off < len(data); line++ {
		end, next := len(data), len(data)
		if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
			end, next = off+nl, off+nl+1
		}
		if b := data[off:end]; len(b) > 0 && decode(b) != nil {
			if next < len(data) {
				return 0, fmt.Errorf("core: %s line %d: undecodable line followed by more data", path, line)
			}
			return int64(len(data) - off), os.Truncate(path, int64(off))
		}
		off = next
	}
	return 0, nil
}

// partitionRecords recursively splits the index set along hierarchy
// children until every chunk is ≤ maxChunk or no admissible split exists.
// Every produced chunk has ≥ k records.
func partitionRecords(s *cluster.Space, tbl *table.Table, records []int, k, maxChunk int) [][]int {
	return newSplitter(s, tbl, k, maxChunk).partition(records, nil)
}

// splitter holds the scratch of one partitionRecords call, reused down the
// recursion: a split materializes its parts before any of them is split
// again, so one buffer of chunk codes serves every level.
type splitter struct {
	s           *cluster.Space
	tbl         *table.Table
	k, maxChunk int

	// codes holds a chunk's value codes column by column: attribute j's
	// code of records[q] at codes[j·len(records)+q]. Scoring an attribute
	// overwrites its column with each record's child index.
	codes []int32
	// part[v] is 1 + the index of the child covering value v, 0 while v is
	// unseen; it is cleared after each attribute.
	part []int32
	vals []int
	cnt  []int
}

func newSplitter(s *cluster.Space, tbl *table.Table, k, maxChunk int) *splitter {
	maxValues := 0
	for _, h := range s.Hiers {
		maxValues = max(maxValues, h.NumValues())
	}
	return &splitter{s: s, tbl: tbl, k: k, maxChunk: maxChunk, part: make([]int32, maxValues)}
}

// partition appends the chunks of records to out.
func (sp *splitter) partition(records []int, out [][]int) [][]int {
	if len(records) <= sp.maxChunk {
		return append(out, records)
	}
	parts := sp.bestSplit(records)
	if parts == nil {
		return append(out, records)
	}
	for _, p := range parts {
		out = sp.partition(p, out)
	}
	return out
}

// bestSplit tries every attribute: records are grouped by the child of the
// chunk's closure node that covers their value; undersized groups are
// folded together (they share the parent closure anyway, so the fold stays
// describable). The attribute whose split minimizes the largest part is
// chosen, the first one on a tie; nil means no attribute yields ≥ 2 parts
// of size ≥ k.
//
// The chunk's codes are gathered once, record by record, into one column
// per attribute. An attribute is scored from its child counts alone
// (foldedMax); the closure and the covering children are computed once
// per distinct value, not per record. Only the winning attribute's records
// are counting-sorted into groups, by child and in record order within a
// child, and folded by foldSmall.
func (sp *splitter) bestSplit(records []int) [][]int {
	n, r := len(records), sp.s.NumAttrs()
	sp.codes = slices.Grow(sp.codes[:0], n*r)[:n*r]
	codes := sp.codes
	for q, i := range records {
		for j, v := range sp.tbl.Records[i][:r] {
			codes[j*n+q] = int32(v)
		}
	}
	bestJ, bestMax, bestKids := -1, n+1, 0
	for j, h := range sp.s.Hiers {
		col, part := codes[j*n:(j+1)*n], sp.part
		vals := sp.vals[:0]
		for _, v := range col {
			if part[v] == 0 {
				part[v] = 1
				vals = append(vals, int(v))
			}
		}
		sp.vals = vals
		// Closure node of the chunk on attribute j.
		node := h.Closure(vals)
		if children := h.Children(node); len(children) >= 2 {
			for _, v := range vals {
				// Walk up to the child of node covering this leaf; node is
				// an ancestor of every leaf of the chunk.
				u := h.LeafOf(v)
				for h.Parent(u) != node {
					u = h.Parent(u)
				}
				part[v] = int32(slices.Index(children, u)) + 1
			}
			cnt := append(sp.cnt[:0], make([]int, len(children))...)
			sp.cnt = cnt
			for q, v := range col {
				c := part[v] - 1
				col[q] = c
				cnt[c]++
			}
			if m, ok := foldedMax(cnt, sp.k); ok && m < bestMax {
				bestJ, bestMax, bestKids = j, m, len(children)
			}
		}
		for _, v := range vals {
			part[v] = 0
		}
	}
	if bestJ < 0 {
		return nil
	}
	col := codes[bestJ*n : (bestJ+1)*n]
	// start[c] is where child c's group begins in buf.
	start := make([]int, bestKids+1)
	for _, c := range col {
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	buf := make([]int, n)
	groups := make([][]int, bestKids)
	for c := range groups {
		groups[c] = buf[start[c]:start[c]:start[c+1]]
	}
	for q, i := range records {
		c := col[q]
		groups[c] = append(groups[c], i)
	}
	return foldSmall(groups, sp.k)
}

// foldedMax returns the largest part foldSmall makes of groups with the
// given sizes, and whether it makes at least two parts.
func foldedMax(sizes []int, k int) (int, bool) {
	parts, smalls, largest, smallest := 0, 0, 0, 0
	for _, c := range sizes {
		switch {
		case c == 0:
		case c >= k:
			if parts == 0 || c < smallest {
				smallest = c
			}
			largest = max(largest, c)
			parts++
		default:
			smalls += c
		}
	}
	switch {
	case smalls == 0:
	case smalls >= k:
		largest = max(largest, smalls)
		parts++
	default:
		// The leftovers attach to a smallest part (none: one part in all).
		largest = max(largest, smallest+smalls)
	}
	return largest, parts >= 2
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
