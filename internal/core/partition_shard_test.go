package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/table"
)

// partitionFixture builds a deterministic space/table pair large enough to
// split into several shards at MaxChunk 30.
func partitionFixture(t testing.TB) (*cluster.Space, *table.Table) {
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
func genEqual(t testing.TB, a, b *table.GenTable) bool {
	t.Helper()
	if len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Records {
		if !slices.Equal(a.Records[i], b.Records[i]) {
			return false
		}
	}
	return true
}

// shardRun is one partitioned run with its shard counters.
type shardRun struct {
	g      *table.GenTable
	shards [][]int
	// visited and hits are the resilient.shards and
	// resilient.checkpoint_hits counters.
	visited, hits int64
	err           error
}

// runShards runs the partitioned pipeline under ctx (nil: never done) with
// a metrics recorder attached.
func runShards(ctx context.Context, s *cluster.Space, tbl *table.Table, opt PartitionedOptions) shardRun {
	m := obs.NewMetrics()
	g, _, shards, err := KAnonymizePartitionedReportCtx(obs.With(ctx, m), s, tbl, opt)
	st := m.Snapshot()
	return shardRun{g, shards, st.Counter(obs.CounterResilientShards), st.Counter(obs.CounterResilientCheckpointHits), err}
}

// TestPartitionFaultSurfacesShardError pins the failure contract: a
// shard that panics is not retried or completed some other way. The run
// stops with a typed *ShardError naming the shard, returns no table, and
// has visited the shards up to the failed one, of which exactly the
// earlier ones were checkpointed. The panic comes from OnShard, which runs
// inside the shard's containment.
func TestPartitionFaultSurfacesShardError(t *testing.T) {
	s, tbl := partitionFixture(t)
	var checkpointed []int
	calls := 0
	opt := PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ck ShardCheckpoint) {
		calls++
		if ck.Shard == 1 {
			panic(&shardFault{shard: ck.Shard})
		}
		checkpointed = append(checkpointed, ck.Shard)
	}}

	r := runShards(nil, s, tbl, opt)
	var se *ShardError
	if !errors.As(r.err, &se) || se.Shard != 1 {
		t.Fatalf("err = %v, want *ShardError for shard 1", r.err)
	}
	var tp *par.TaskPanic
	var sf *shardFault
	if !errors.As(r.err, &tp) || !errors.As(r.err, &sf) {
		t.Fatalf("err = %v does not reach the contained panic and its value", r.err)
	}
	if strings.Contains(r.err.Error(), sf.Error()) {
		t.Fatalf("err = %q carries the raw panic payload", r.err)
	}
	if r.g != nil {
		t.Fatal("failed run returned a release")
	}
	if calls != 2 {
		t.Fatalf("OnShard ran %d times, want 2: a failed shard must not run again", calls)
	}
	if r.visited != 2 || len(r.shards) < 2 {
		t.Fatalf("visited %d of %d shards, want 2", r.visited, len(r.shards))
	}
	if len(checkpointed) != 1 || checkpointed[0] != 0 {
		t.Fatalf("checkpointed shards %v, want [0]", checkpointed)
	}
}

// TestPartitionFaultedShardFailsRun: a fault in a later shard fails the
// run there and nowhere else. The shards before it run once each and are
// checkpointed, the shards after it never run, and the shard record sets
// come back with the error, still covering every record exactly once.
func TestPartitionFaultedShardFailsRun(t *testing.T) {
	s, tbl := partitionFixture(t)
	var ran []int
	r := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ck ShardCheckpoint) {
		ran = append(ran, ck.Shard)
		if ck.Shard == 2 {
			panic(&shardFault{shard: ck.Shard})
		}
	}})
	var se *ShardError
	if !errors.As(r.err, &se) || se.Shard != 2 {
		t.Fatalf("err = %v, want *ShardError for shard 2", r.err)
	}
	var sf *shardFault
	if !errors.As(r.err, &sf) || sf.shard != 2 {
		t.Fatalf("err = %v does not reach the shard's fault", r.err)
	}
	if r.g != nil {
		t.Fatal("failed run returned a release")
	}
	if !slices.Equal(ran, []int{0, 1, 2}) || r.visited != 3 || r.hits != 0 {
		t.Fatalf("ran %v, visited %d, %d hits; want [0 1 2], 3 and 0", ran, r.visited, r.hits)
	}
	if len(r.shards) <= 3 {
		t.Fatalf("fixture has %d shards, want > 3 so that some never run", len(r.shards))
	}
	seen := make([]bool, tbl.Len())
	for _, shard := range r.shards {
		for _, i := range shard {
			if seen[i] {
				t.Fatalf("record %d in two shards", i)
			}
			seen[i] = true
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("record %d in no shard", i)
	}
}

// failingDistance fails inside the engine: its Eval panics with err, on
// whichever goroutine of the engine's pool prices a pair.
type failingDistance struct{ err error }

func (failingDistance) Name() string { return "failing" }

func (d failingDistance) Eval(int, int, int, float64, float64, float64) float64 { panic(d.err) }

// TestPartitionEngineErrorFailsRun: a failure inside the engine itself,
// not in OnShard, fails the run at the first shard it prices, at Workers 1
// and 4. The *ShardError reaches the engine's error through the contained
// panic, its message does not carry it, and the shard is never
// checkpointed.
func TestPartitionEngineErrorFailsRun(t *testing.T) {
	s, tbl := partitionFixture(t)
	bad := errors.New("bad input")
	for _, workers := range []int{1, 4} {
		calls := 0
		r := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers,
			Distance: failingDistance{err: bad},
			OnShard:  func(ShardCheckpoint) { calls++ }})
		var se *ShardError
		if !errors.As(r.err, &se) || se.Shard != 0 || !errors.Is(r.err, bad) {
			t.Fatalf("workers %d: err = %v, want *ShardError for shard 0 wrapping the engine error", workers, r.err)
		}
		if strings.Contains(r.err.Error(), bad.Error()) {
			t.Fatalf("workers %d: err = %q carries the raw panic payload", workers, r.err)
		}
		if r.g != nil || calls != 0 || r.visited != 1 {
			t.Fatalf("workers %d: table %v, %d checkpoints, %d visited; want none, 0 and 1", workers, r.g != nil, calls, r.visited)
		}
	}
}

// TestPartitionReportByteIdenticalAcrossRuns: a run that restores one
// shard, computes one and fails on the next gives the same error and the
// same normalized run stats, byte for byte, every time it is run.
func TestPartitionReportByteIdenticalAcrossRuns(t *testing.T) {
	s, tbl := partitionFixture(t)
	var first ShardCheckpoint
	if r := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ck ShardCheckpoint) {
		if ck.Shard == 0 {
			first = ck
		}
	}}); r.err != nil {
		t.Fatal(r.err)
	}
	run := func() string {
		m := obs.NewMetrics()
		_, _, _, err := KAnonymizePartitionedReportCtx(obs.With(nil, m), s, tbl, PartitionedOptions{K: 5, MaxChunk: 30,
			CompletedShards: map[int]ShardCheckpoint{0: first},
			OnShard: func(ck ShardCheckpoint) {
				if ck.Shard == 2 {
					panic("shard bug")
				}
			}})
		if err == nil {
			t.Fatal("a panicking shard did not fail the run")
		}
		st := m.Snapshot()
		st.Normalize()
		if st.Counter(obs.CounterResilientShards) != 3 || st.Counter(obs.CounterResilientCheckpointHits) != 1 {
			t.Fatalf("stats %s, want 3 shards visited and 1 restored", st.JSON())
		}
		return err.Error() + "\n" + st.JSON()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("reports differ across identical runs:\n%s\n%s", a, b)
	}
}

// TestPartitionPanicContained: a panic, on the driving goroutine or
// re-raised from a worker pool as a *par.TaskPanic, surfaces as one
// *par.TaskPanic over the payload under the *ShardError (a pool's is not
// wrapped a second time), and no message carries the payload (DESIGN.md
// §16).
func TestPartitionPanicContained(t *testing.T) {
	const secret = "secret-diagnosis"
	s, tbl := partitionFixture(t)
	for _, tc := range []struct {
		name  string
		value interface{}
	}{
		{"direct", secret},
		{"pool", &par.TaskPanic{Value: secret}},
	} {
		opt := PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ShardCheckpoint) { panic(tc.value) }}
		r := runShards(nil, s, tbl, opt)
		var se *ShardError
		if !errors.As(r.err, &se) || se.Shard != 0 {
			t.Fatalf("%s: err = %v, want *ShardError for shard 0", tc.name, r.err)
		}
		tp, ok := se.Cause.(*par.TaskPanic)
		if !ok || tp.Value != secret {
			t.Fatalf("%s: cause = %#v, want a *par.TaskPanic over the payload", tc.name, se.Cause)
		}
		if strings.Contains(r.err.Error(), secret) {
			t.Errorf("%s: %q carries the panic payload", tc.name, r.err)
		}
	}
}

// TestPartitionCachedShardSkipsRun: a shard restored from its checkpoint
// does not run (OnShard never fires for it), and the counters record it as
// visited and restored.
func TestPartitionCachedShardSkipsRun(t *testing.T) {
	s, tbl := partitionFixture(t)
	all := map[int]ShardCheckpoint{}
	clean := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30,
		OnShard: func(ck ShardCheckpoint) { all[ck.Shard] = ck }})
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	cached := map[int]ShardCheckpoint{0: all[0], 2: all[2]}
	var ran []int
	r := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, CompletedShards: cached,
		OnShard: func(ck ShardCheckpoint) { ran = append(ran, ck.Shard) }})
	if r.err != nil {
		t.Fatal(r.err)
	}
	for _, i := range ran {
		if _, ok := cached[i]; ok {
			t.Errorf("cached shard %d ran", i)
		}
	}
	if len(ran) != len(r.shards)-2 || r.hits != 2 || r.visited != int64(len(r.shards)) {
		t.Fatalf("ran %v of %d shards, %d hits, %d visited; want all but the 2 cached", ran, len(r.shards), r.hits, r.visited)
	}
	if !genEqual(t, r.g, clean.g) {
		t.Fatal("output with restored shards differs from a clean run")
	}
}

// TestPartitionParentCancelAborts: a cancellation of the parent ctx
// between shards stops the run with ctx.Err() before the next shard runs.
func TestPartitionParentCancelAborts(t *testing.T) {
	s, tbl := partitionFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	r := runShards(ctx, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ck ShardCheckpoint) {
		ran = append(ran, ck.Shard)
		if ck.Shard == 1 {
			cancel()
		}
	}})
	if !errors.Is(r.err, context.Canceled) || r.g != nil {
		t.Fatalf("err = %v, table %v; want context.Canceled and no table", r.err, r.g != nil)
	}
	// Shard 1 completed before the done-check of shard 2, so the abort
	// lands on shard 2.
	if !slices.Equal(ran, []int{0, 1}) || r.visited != 3 {
		t.Fatalf("ran %v, visited %d; want [0 1] and 3", ran, r.visited)
	}
}

// TestPartitionCancelDuringShardAborts: a shard that fails while the
// parent ctx is done is a cancelled run, not a shard failure: the run is
// resumable and no shard is blamed.
func TestPartitionCancelDuringShardAborts(t *testing.T) {
	s, tbl := partitionFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := runShards(ctx, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ck ShardCheckpoint) {
		cancel()
		panic(&shardFault{shard: ck.Shard})
	}})
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", r.err)
	}
	var se *ShardError
	if errors.As(r.err, &se) {
		t.Fatalf("err = %v, want a cancellation, not a shard failure", r.err)
	}
}

// TestPartitionEmitsCounters: the counters count a restored shard and the
// shard that failed the run.
func TestPartitionEmitsCounters(t *testing.T) {
	s, tbl := partitionFixture(t)
	var first ShardCheckpoint
	runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, OnShard: func(ck ShardCheckpoint) {
		if ck.Shard == 0 {
			first = ck
		}
	}})
	r := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30,
		CompletedShards: map[int]ShardCheckpoint{0: first},
		OnShard: func(ck ShardCheckpoint) {
			if ck.Shard == 2 {
				panic("det")
			}
		}})
	if r.err == nil {
		t.Fatal("a failing shard did not fail the run")
	}
	if r.visited != 3 || r.hits != 1 {
		t.Fatalf("resilient.shards = %d, resilient.checkpoint_hits = %d; want 3 and 1", r.visited, r.hits)
	}
}

// TestPartitionReportWorkerInvariant pins the determinism acceptance
// criterion: a run produces the same shard record sets, the same counters
// and the same output at Workers 1 and 4, and across identical runs.
func TestPartitionReportWorkerInvariant(t *testing.T) {
	run := func(workers int) shardRun {
		s, tbl := partitionFixture(t)
		r := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers})
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r
	}
	same := func(a, b shardRun) bool {
		return slices.EqualFunc(a.shards, b.shards, slices.Equal[[]int]) &&
			a.visited == b.visited && a.hits == b.hits && genEqual(t, a.g, b.g)
	}
	r1 := run(1)
	if len(r1.shards) < 2 || r1.visited != int64(len(r1.shards)) {
		t.Fatalf("%d shards, %d visited; want ≥ 2, all visited", len(r1.shards), r1.visited)
	}
	if !same(r1, run(4)) {
		t.Fatal("shards or output differ between Workers 1 and 4")
	}
	if !same(r1, run(1)) {
		t.Fatal("shards or output differ across identical runs")
	}
}

// TestPartitionCheckpointResume kills a run mid-flight with a
// cancellation, then resumes from the collected shard checkpoints: the
// resumed run must skip the completed shards and produce output
// byte-identical to an uninterrupted run.
func TestPartitionCheckpointResume(t *testing.T) {
	s, tbl := partitionFixture(t)
	base := PartitionedOptions{K: 5, MaxChunk: 30}
	clean := runShards(nil, s, tbl, base)
	if clean.err != nil {
		t.Fatal(clean.err)
	}

	// Run 1: collect shard checkpoints as they complete, and cancel once
	// the first is in, so the run dies before the second shard.
	collected := map[int]ShardCheckpoint{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt1 := base
	opt1.OnShard = func(ck ShardCheckpoint) {
		collected[ck.Shard] = ck
		cancel()
	}
	if r := runShards(ctx, s, tbl, opt1); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", r.err)
	}
	if len(collected) == 0 {
		t.Fatal("no shard checkpoints collected before the kill")
	}

	// Run 2: resume from the collected checkpoints, no faults.
	opt2 := base
	opt2.CompletedShards = collected
	var ran []int
	opt2.OnShard = func(ck ShardCheckpoint) { ran = append(ran, ck.Shard) }
	r := runShards(nil, s, tbl, opt2)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.hits != int64(len(collected)) {
		t.Fatalf("checkpoint hits = %d, want %d", r.hits, len(collected))
	}
	for _, i := range ran {
		if _, ok := collected[i]; ok {
			t.Errorf("shard %d recomputed despite a valid checkpoint", i)
		}
	}
	if !genEqual(t, r.g, clean.g) {
		t.Fatal("resumed output differs from an uninterrupted run")
	}
}

// TestPartitionStaleCheckpointRecomputed pins the signature guard: a
// checkpoint written under different parameters must be ignored, not
// silently reused.
func TestPartitionStaleCheckpointRecomputed(t *testing.T) {
	s, tbl := partitionFixture(t)
	base := PartitionedOptions{K: 5, MaxChunk: 30}

	collected := map[int]ShardCheckpoint{}
	opt1 := base
	opt1.K = 4 // different k → different signature and different clusters
	opt1.OnShard = func(ck ShardCheckpoint) { collected[ck.Shard] = ck }
	if r := runShards(nil, s, tbl, opt1); r.err != nil {
		t.Fatal(r.err)
	}

	opt2 := base
	opt2.CompletedShards = collected
	r := runShards(nil, s, tbl, opt2)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.hits != 0 {
		t.Fatalf("checkpoint hits = %d, want 0: stale checkpoints must be recomputed", r.hits)
	}
	clean := runShards(nil, s, tbl, base)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	if !genEqual(t, r.g, clean.g) {
		t.Fatal("output with stale checkpoints differs from clean run")
	}
}

// TestPartitionSeededFaultSweep is the acceptance sweep over seeded shard
// panics, plus a delay in the first shard, across several seeds at Workers
// 1 and 4. Both come from OnShard, inside the shard's containment. A run
// whose seeded hit lands on a shard fails with a *ShardError naming that
// shard, returns no table, and has checkpointed exactly the shards before
// it; a hit past the last shard leaves the run clean. A same-seed rerun
// reproduces the identical error and counters, and resuming from the
// checkpoints without faults releases k-anonymous output byte-identical to
// the clean run.
func TestPartitionSeededFaultSweep(t *testing.T) {
	s, tbl := partitionFixture(t)
	clean := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30})
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	shards := len(clean.shards)
	if shards < 2 {
		t.Fatalf("fixture has %d shards, want ≥ 2", shards)
	}
	for _, workers := range []int{1, 4} {
		for _, seed := range []int64{1, 2, 3} {
			hit := seededShard(seed, 6)
			run := func() (shardRun, map[int]ShardCheckpoint) {
				collected := map[int]ShardCheckpoint{}
				opt := PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers,
					OnShard: func(ck ShardCheckpoint) {
						if ck.Shard == 0 {
							time.Sleep(time.Millisecond)
						}
						if ck.Shard == hit-1 {
							panic(&shardFault{shard: ck.Shard})
						}
						collected[ck.Shard] = ck
					}}
				return runShards(nil, s, tbl, opt), collected
			}
			r1, ck1 := run()
			r2, _ := run()
			if fmt.Sprint(r1.err) != fmt.Sprint(r2.err) || r1.visited != r2.visited {
				t.Fatalf("workers %d seed %d: reruns disagree: %v (%d shards) vs %v (%d shards)",
					workers, seed, r1.err, r1.visited, r2.err, r2.visited)
			}

			if hit > shards {
				if r1.err != nil {
					t.Fatalf("workers %d seed %d: hit %d past %d shards failed the run: %v", workers, seed, hit, shards, r1.err)
				}
				if !genEqual(t, r1.g, clean.g) {
					t.Fatalf("workers %d seed %d: unfaulted output differs from clean run", workers, seed)
				}
				continue
			}
			var se *ShardError
			if !errors.As(r1.err, &se) || se.Shard != hit-1 {
				t.Fatalf("workers %d seed %d: err = %v, want *ShardError for shard %d", workers, seed, r1.err, hit-1)
			}
			if r1.g != nil {
				t.Fatalf("workers %d seed %d: failed run returned a table", workers, seed)
			}
			if len(ck1) != hit-1 {
				t.Fatalf("workers %d seed %d: %d shards checkpointed, want %d", workers, seed, len(ck1), hit-1)
			}

			resumed := PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers, CompletedShards: ck1}
			r := runShards(nil, s, tbl, resumed)
			if r.err != nil {
				t.Fatalf("workers %d seed %d: resume: %v", workers, seed, r.err)
			}
			if r.hits != int64(hit-1) {
				t.Fatalf("workers %d seed %d: checkpoint hits = %d, want %d", workers, seed, r.hits, hit-1)
			}
			if !genEqual(t, r.g, clean.g) {
				t.Fatalf("workers %d seed %d: resumed output differs from clean run", workers, seed)
			}
			if !anonymity.IsKAnonymous(r.g, 5) {
				t.Fatalf("workers %d seed %d: resumed output not k-anonymous", workers, seed)
			}
		}
	}
}

// FuzzPartitionFaultContract drives the real pipeline over a
// fuzzer-chosen fault schedule: byte i decides what OnShard does at shard
// i — panic with an error value, panic with a plain value, cancel the run
// and return, cancel and panic, or checkpoint normally. Every run must end
// in one of two ways: the fault-free bytes, or an error with no table. A
// panic fails the run with a *ShardError naming the first failing shard,
// having checkpointed exactly the shards before it; a cancellation gives
// ctx.Err() and no *ShardError. Resuming from the checkpoints without
// faults gives the fault-free bytes, and a rerun of the same schedule the
// same error.
func FuzzPartitionFaultContract(f *testing.F) {
	f.Add(uint8(0), []byte{0x04, 0x00, 0x05})
	f.Add(uint8(1), []byte{0x01})
	f.Add(uint8(3), []byte{0x07, 0x02, 0x06})
	f.Add(uint8(2), []byte{0x05, 0x06, 0x03})
	f.Add(uint8(1), []byte{0x04, 0x05, 0x06, 0x07, 0x04, 0x05, 0x06, 0x07})
	s, tbl := partitionFixture(f)
	clean := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30})
	if clean.err != nil {
		f.Fatal(clean.err)
	}
	last := len(clean.shards) - 1
	f.Fuzz(func(t *testing.T, w uint8, schedule []byte) {
		workers := 1 + int(w%4)
		mode := func(i int) byte {
			if i < len(schedule) {
				return schedule[i] % 8 // 0-3 fault, 4-7 checkpoint
			}
			return 4
		}
		run := func() (shardRun, []int, map[int]ShardCheckpoint) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var checkpointed []int
			written := map[int]ShardCheckpoint{}
			r := runShards(ctx, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers,
				OnShard: func(ck ShardCheckpoint) {
					switch mode(ck.Shard) {
					case 0:
						panic(&shardFault{shard: ck.Shard})
					case 1:
						panic("shard bug")
					case 2:
						cancel()
					case 3:
						cancel()
						panic(&shardFault{shard: ck.Shard})
					}
					checkpointed = append(checkpointed, ck.Shard)
					written[ck.Shard] = ck
				}})
			return r, checkpointed, written
		}
		first := 0
		for first <= last && mode(first) >= 4 {
			first++
		}

		r, checkpointed, written := run()
		if r2, _, _ := run(); fmt.Sprint(r.err) != fmt.Sprint(r2.err) {
			t.Fatalf("reruns of one schedule disagree: %v vs %v", r.err, r2.err)
		}
		want := first // shards checkpointed before the run stops
		var se *ShardError
		switch {
		case first > last || (first == last && mode(first) == 2):
			// No fault, or a cancellation after the last shard completed.
			if r.err != nil || !genEqual(t, r.g, clean.g) {
				t.Fatalf("run without a failing shard: err %v, or output differs", r.err)
			}
			want = last + 1
		case r.g != nil:
			t.Fatalf("run stopped at shard %d returned a table", first)
		case mode(first) >= 2:
			if !errors.Is(r.err, context.Canceled) || errors.As(r.err, &se) {
				t.Fatalf("cancelled at shard %d: err = %v, want context.Canceled and no *ShardError", first, r.err)
			}
			if mode(first) == 2 {
				want++ // the cancelling shard itself completed
			}
		case !errors.As(r.err, &se) || se.Shard != first:
			t.Fatalf("err = %v, want *ShardError for shard %d", r.err, first)
		case strings.Contains(r.err.Error(), "shard bug") || strings.Contains(r.err.Error(), "test fault"):
			t.Fatalf("err = %q carries the panic payload", r.err)
		}
		if !slices.Equal(checkpointed, firstN(want)) {
			t.Fatalf("stopped at shard %d but checkpointed %v", first, checkpointed)
		}

		resumed := runShards(nil, s, tbl, PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers, CompletedShards: written})
		if resumed.err != nil || resumed.hits != int64(want) || !genEqual(t, resumed.g, clean.g) {
			t.Fatalf("resume from %d checkpoints: err %v, %d hits, or output differs", want, resumed.err, resumed.hits)
		}
	})
}

// firstN returns [0, 1, …, n-1].
func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestPartitionSignature(t *testing.T) {
	base := Signature("k=5|dist=d3", []int{0, 1, 2})
	if base == 0 {
		t.Fatal("zero signature")
	}
	if got := Signature("k=5|dist=d3", []int{0, 1, 2}); got != base {
		t.Error("signature not deterministic")
	}
	if got := Signature("k=6|dist=d3", []int{0, 1, 2}); got == base {
		t.Error("parameter change not reflected")
	}
	if got := Signature("k=5|dist=d3", []int{0, 1, 3}); got == base {
		t.Error("record change not reflected")
	}
	if got := Signature("k=5|dist=d3", []int{0, 2, 1}); got == base {
		t.Error("record order not reflected")
	}
}

// TestPartitionLoadLog pins the log reader: later lines win in the
// caller's decode, blank lines are skipped, a torn trailing line is
// dropped and truncated away, and a bad line with data after it is an
// error that leaves the file untouched.
func TestPartitionLoadLog(t *testing.T) {
	line := func(ck ShardCheckpoint) string {
		b, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a := ShardCheckpoint{Shard: 0, Sig: 7, Clusters: [][]int{{0, 1}, {2, 3}}}
	b := ShardCheckpoint{Shard: 1, Sig: 8, Clusters: [][]int{{4, 5}}}
	a2 := ShardCheckpoint{Shard: 0, Sig: 9, Clusters: [][]int{{0, 1, 2, 3}}}

	// load writes log to a fresh file (none for a nil log), loads it, and
	// returns the checkpoints by shard, the bytes dropped, the error and
	// the file's bytes afterwards.
	load := func(t *testing.T, log []byte) (map[int]ShardCheckpoint, int64, error, []byte) {
		path := filepath.Join(t.TempDir(), "shards.jsonl")
		if log != nil {
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		got := map[int]ShardCheckpoint{}
		dropped, err := LoadLog(path, func(b []byte) error {
			var ck ShardCheckpoint
			if err := json.Unmarshal(b, &ck); err != nil {
				return err
			}
			got[ck.Shard] = ck
			return nil
		})
		after, _ := os.ReadFile(path)
		return got, dropped, err, after
	}

	t.Run("later-line-wins", func(t *testing.T) {
		log := []byte(line(a) + "\n" + line(b) + "\n" + line(a2) + "\n")
		got, dropped, err, after := load(t, log)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Sig != 9 || got[1].Sig != 8 {
			t.Fatalf("loaded %+v", got)
		}
		if dropped != 0 || !bytes.Equal(after, log) {
			t.Errorf("dropped %d bytes of a whole log", dropped)
		}
	})
	t.Run("torn-tail-dropped", func(t *testing.T) {
		full := line(a) + "\n" + line(b)
		torn := full[:len(full)-4] // cut mid-object, no trailing newline
		got, dropped, err, after := load(t, []byte(torn))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Sig != 7 {
			t.Fatalf("loaded %+v, want only shard 0", got)
		}
		if keep := line(a) + "\n"; string(after) != keep || dropped != int64(len(torn)-len(keep)) {
			t.Errorf("file after load %q (%d bytes dropped), want %q", after, dropped, keep)
		}
	})
	t.Run("torn-middle-errors", func(t *testing.T) {
		log := []byte(line(a) + "\n{garbage\n" + line(b) + "\n")
		_, dropped, err, after := load(t, log)
		if err == nil || dropped != 0 {
			t.Fatalf("corruption before valid data: dropped=%d err=%v, want 0 and an error", dropped, err)
		}
		if !bytes.Equal(after, log) {
			t.Fatalf("file changed to %q, want it untouched", after)
		}
	})
	t.Run("empty", func(t *testing.T) {
		got, dropped, err, _ := load(t, nil)
		if err != nil || len(got) != 0 || dropped != 0 {
			t.Fatalf("got %v, %d, %v", got, dropped, err)
		}
	})
	t.Run("blank-lines-skipped", func(t *testing.T) {
		log := []byte("\n" + line(a) + "\n\n")
		got, dropped, err, after := load(t, log)
		if err != nil || len(got) != 1 || dropped != 0 || !bytes.Equal(after, log) {
			t.Fatalf("got %v, %d, %v", got, dropped, err)
		}
	})
}
