package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/resilient"
	"kanon/internal/table"
)

// partitionFixture builds a deterministic space/table pair large enough to
// split into several shards at MaxChunk 30.
func partitionFixture(t *testing.T) (*cluster.Space, *table.Table) {
	t.Helper()
	return testSpace(t, rand.New(rand.NewSource(70)), 120, "lm")
}

// shardFault is the panic value of a shard these tests fail on purpose.
type shardFault struct{ shard int }

func (e *shardFault) Error() string { return fmt.Sprintf("test fault in shard %d", e.shard) }

// seededShard spreads seed over [1, maxHit] with a splitmix64 hash: the
// seeded sweeps fail the run at shard seededShard(seed, maxHit)-1, and the
// fixed derivation keeps that shard reproducible per seed.
func seededShard(seed, maxHit int64) int {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x%uint64(maxHit)) + 1
}

// genEqual compares two generalized tables record by record.
func genEqual(t *testing.T, a, b *table.GenTable) bool {
	t.Helper()
	if len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if !a.Records[i].Equal(b.Records[i]) {
			return false
		}
	}
	return true
}

// TestPartitionFaultSurfacesShardError pins the failure contract: a
// shard that panics is not retried or completed some other way. The run
// stops with a typed *resilient.ShardError naming the shard, returns no
// table, and reports the shards up to the failed one, of which exactly the
// earlier ones were checkpointed. The panic comes from OnShard, which runs
// inside the shard's containment.
func TestPartitionFaultSurfacesShardError(t *testing.T) {
	s, tbl := partitionFixture(t)
	var checkpointed []int
	calls := 0
	opt := PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ck resilient.ShardCheckpoint) {
		calls++
		if ck.Shard == 1 {
			panic(&shardFault{shard: ck.Shard})
		}
		checkpointed = append(checkpointed, ck.Shard)
	}}

	g, clusters, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
	var se *resilient.ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("err = %v, want *resilient.ShardError for shard 1", err)
	}
	var pe *resilient.PanicError
	var sf *shardFault
	if !errors.As(err, &pe) || !errors.As(err, &sf) {
		t.Fatalf("err = %v does not reach the contained panic and its value", err)
	}
	if strings.Contains(err.Error(), sf.Error()) {
		t.Fatalf("err = %q carries the raw panic payload", err)
	}
	if g != nil || clusters != nil {
		t.Fatal("failed run returned a release")
	}
	if calls != 2 {
		t.Fatalf("OnShard ran %d times, want 2: a failed shard must not run again", calls)
	}
	if rep == nil || len(rep.Shards) != 2 || rep.Shards[1].Outcome != resilient.OutcomeFailed {
		t.Fatalf("report = %v, want shard 0 ok and shard 1 failed", rep)
	}
	if len(checkpointed) != 1 || checkpointed[0] != 0 {
		t.Fatalf("checkpointed shards %v, want [0]", checkpointed)
	}
}

// TestPartitionReportWorkerInvariant pins the determinism acceptance
// criterion: a run produces byte-identical RunReport JSON and identical
// output at Workers 1 and 4.
func TestPartitionReportWorkerInvariant(t *testing.T) {
	run := func(workers int) ([]byte, *table.GenTable) {
		s, tbl := partitionFixture(t)
		opt := PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers}
		g, _, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
		if err != nil {
			t.Fatal(err)
		}
		return rep.JSON(), g
	}
	j1, g1 := run(1)
	j4, g4 := run(4)
	if !bytes.Equal(j1, j4) {
		t.Fatalf("RunReport differs between Workers 1 and 4:\n%s\n%s", j1, j4)
	}
	if !genEqual(t, g1, g4) {
		t.Fatal("output differs between Workers 1 and 4")
	}
	// And across two identical runs at the same worker count.
	j1b, _ := run(1)
	if !bytes.Equal(j1, j1b) {
		t.Fatalf("RunReport differs across identical runs:\n%s\n%s", j1, j1b)
	}
}

// TestPartitionCheckpointResume kills a run mid-flight with a
// cancellation, then resumes from the collected shard checkpoints: the
// resumed run must skip the completed shards and produce output
// byte-identical to an uninterrupted run.
func TestPartitionCheckpointResume(t *testing.T) {
	s, tbl := partitionFixture(t)
	base := PartitionedOptions{K: 5, MaxChunk: 30}
	gClean, _, _, err := KAnonymizePartitionedReportCtx(nil, s, tbl, base)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: collect shard checkpoints as they complete, and cancel once
	// the first is in, so the run dies before the second shard.
	collected := map[int]resilient.ShardCheckpoint{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt1 := base
	opt1.OnShard = func(ck resilient.ShardCheckpoint) {
		collected[ck.Shard] = ck
		cancel()
	}
	_, _, rep1, err := KAnonymizePartitionedReportCtx(ctx, s, tbl, opt1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(collected) == 0 {
		t.Fatal("no shard checkpoints collected before the kill")
	}
	if rep1 == nil {
		t.Fatal("killed run returned no report")
	}

	// Run 2: resume from the collected checkpoints, no faults.
	opt2 := base
	opt2.CompletedShards = collected
	g, _, rep2, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CheckpointHits != len(collected) {
		t.Fatalf("CheckpointHits = %d, want %d", rep2.CheckpointHits, len(collected))
	}
	for i := range collected {
		if !rep2.Shards[i].FromCheckpoint {
			t.Errorf("shard %d recomputed despite a valid checkpoint", i)
		}
	}
	if !genEqual(t, g, gClean) {
		t.Fatal("resumed output differs from an uninterrupted run")
	}
}

// TestPartitionStaleCheckpointRecomputed pins the signature guard: a
// checkpoint written under different parameters must be ignored, not
// silently reused.
func TestPartitionStaleCheckpointRecomputed(t *testing.T) {
	s, tbl := partitionFixture(t)
	base := PartitionedOptions{K: 5, MaxChunk: 30}

	collected := map[int]resilient.ShardCheckpoint{}
	opt1 := base
	opt1.K = 4 // different k → different signature and different clusters
	opt1.OnShard = func(ck resilient.ShardCheckpoint) { collected[ck.Shard] = ck }
	if _, _, _, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt1); err != nil {
		t.Fatal(err)
	}

	opt2 := base
	opt2.CompletedShards = collected
	g, _, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CheckpointHits != 0 {
		t.Fatalf("CheckpointHits = %d, want 0: stale checkpoints must be recomputed", rep.CheckpointHits)
	}
	gClean, _, _, err := KAnonymizePartitionedReportCtx(nil, s, tbl, base)
	if err != nil {
		t.Fatal(err)
	}
	if !genEqual(t, g, gClean) {
		t.Fatal("output with stale checkpoints differs from clean run")
	}
}

// TestPartitionSeededFaultSweep is the acceptance sweep over seeded shard
// panics, plus a delay in the first shard, across several seeds at Workers
// 1 and 4. Both come from OnShard, inside the shard's containment. A run
// whose seeded hit lands on a shard fails with a
// *resilient.ShardError naming that shard, returns no table, and has
// checkpointed exactly the shards before it; a hit past the last shard
// leaves the run clean. A same-seed rerun reproduces the identical
// RunReport, and resuming from the checkpoints without faults releases
// k-anonymous output byte-identical to the clean run.
func TestPartitionSeededFaultSweep(t *testing.T) {
	s, tbl := partitionFixture(t)
	gClean, _, repClean, err := KAnonymizePartitionedReportCtx(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30})
	if err != nil {
		t.Fatal(err)
	}
	shards := len(repClean.Shards)
	if shards < 2 {
		t.Fatalf("fixture has %d shards, want ≥ 2", shards)
	}
	for _, workers := range []int{1, 4} {
		for _, seed := range []int64{1, 2, 3} {
			hit := seededShard(seed, 6)
			run := func() (*table.GenTable, []byte, map[int]resilient.ShardCheckpoint, error) {
				collected := map[int]resilient.ShardCheckpoint{}
				opt := PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers,
					OnShard: func(ck resilient.ShardCheckpoint) {
						if ck.Shard == 0 {
							time.Sleep(time.Millisecond)
						}
						if ck.Shard == hit-1 {
							panic(&shardFault{shard: ck.Shard})
						}
						collected[ck.Shard] = ck
					}}
				g, _, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
				if rep == nil {
					t.Fatalf("workers %d seed %d: run returned no report", workers, seed)
				}
				return g, rep.JSON(), collected, err
			}
			g1, j1, ck1, err1 := run()
			_, j2, _, err2 := run()
			if !bytes.Equal(j1, j2) {
				t.Fatalf("workers %d seed %d: RunReport not reproducible:\n%s\n%s", workers, seed, j1, j2)
			}
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("workers %d seed %d: reruns disagree: %v vs %v", workers, seed, err1, err2)
			}

			if hit > shards {
				if err1 != nil {
					t.Fatalf("workers %d seed %d: hit %d past %d shards failed the run: %v", workers, seed, hit, shards, err1)
				}
				if !genEqual(t, g1, gClean) {
					t.Fatalf("workers %d seed %d: unfaulted output differs from clean run", workers, seed)
				}
				continue
			}
			var se *resilient.ShardError
			if !errors.As(err1, &se) || se.Shard != hit-1 {
				t.Fatalf("workers %d seed %d: err = %v, want *resilient.ShardError for shard %d", workers, seed, err1, hit-1)
			}
			if g1 != nil {
				t.Fatalf("workers %d seed %d: failed run returned a table", workers, seed)
			}
			if len(ck1) != hit-1 {
				t.Fatalf("workers %d seed %d: %d shards checkpointed, want %d", workers, seed, len(ck1), hit-1)
			}

			resumed := PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers, CompletedShards: ck1}
			g, _, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, resumed)
			if err != nil {
				t.Fatalf("workers %d seed %d: resume: %v", workers, seed, err)
			}
			if rep.CheckpointHits != hit-1 {
				t.Fatalf("workers %d seed %d: CheckpointHits = %d, want %d", workers, seed, rep.CheckpointHits, hit-1)
			}
			if !genEqual(t, g, gClean) {
				t.Fatalf("workers %d seed %d: resumed output differs from clean run", workers, seed)
			}
			if !anonymity.IsKAnonymous(g, 5) {
				t.Fatalf("workers %d seed %d: resumed output not k-anonymous", workers, seed)
			}
		}
	}
}
