package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/fault"
	"kanon/internal/resilient"
	"kanon/internal/table"
)

// partitionFixture builds a deterministic space/table pair large enough to
// split into several shards at MaxChunk 30.
func partitionFixture(t *testing.T) (*cluster.Space, *table.Table) {
	t.Helper()
	return testSpace(t, rand.New(rand.NewSource(70)), 120, "lm")
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

// fastResilience is a test policy with microsecond backoffs.
func fastResilience() *resilient.Policy {
	return &resilient.Policy{MaxAttempts: 3, BackoffBase: 10 * time.Microsecond, BackoffMax: 100 * time.Microsecond, Seed: 7}
}

// TestPartitionFaultRetrySameOutput injects a panic at the first shard
// attempt and requires the retried run to complete with output
// byte-identical to a clean run: a transient shard failure must be
// invisible in the data.
func TestPartitionFaultRetrySameOutput(t *testing.T) {
	s, tbl := partitionFixture(t)
	opt := PartitionedOptions{K: 5, MaxChunk: 30, Resilience: fastResilience()}
	gClean, _, err := KAnonymizePartitioned(s, tbl, opt)
	if err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector(fault.Rule{Site: SitePartitionChunk, Hit: 1, Action: fault.Panic})
	deactivate := fault.Activate(in)
	g, _, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
	deactivate()
	if err != nil {
		t.Fatal(err)
	}
	if in.Hits(SitePartitionChunk) < 2 {
		t.Fatalf("chunk site hit %d times, retry never happened", in.Hits(SitePartitionChunk))
	}
	if rep.Retries != 1 || rep.Quarantined != 0 {
		t.Fatalf("report = %s, want exactly 1 retry", rep)
	}
	if !genEqual(t, g, gClean) {
		t.Fatal("faulted run output differs from clean run")
	}
}

// TestPartitionQuarantineDegradedCompletes exhausts shard 0's retry budget
// (panics at hits 1, 2, 3) and requires the run to complete via the
// degraded single-worker re-run with output byte-identical to a clean run
// and all anonymity invariants intact.
func TestPartitionQuarantineDegradedCompletes(t *testing.T) {
	s, tbl := partitionFixture(t)
	opt := PartitionedOptions{K: 5, MaxChunk: 30, Resilience: fastResilience()}
	gClean, _, err := KAnonymizePartitioned(s, tbl, opt)
	if err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector(
		fault.Rule{Site: SitePartitionChunk, Hit: 1, Action: fault.Panic},
		fault.Rule{Site: SitePartitionChunk, Hit: 2, Action: fault.Panic},
		fault.Rule{Site: SitePartitionChunk, Hit: 3, Action: fault.Panic},
	)
	deactivate := fault.Activate(in)
	g, clusters, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
	deactivate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 1 || rep.Degraded != 1 {
		t.Fatalf("report = %s, want 1 quarantined + 1 degraded shard", rep)
	}
	if !rep.Shards[0].Degraded {
		t.Fatalf("shard 0 = %+v, want degraded", rep.Shards[0])
	}
	if !genEqual(t, g, gClean) {
		t.Fatal("degraded output differs from clean run: the fallback must be output-neutral")
	}
	if !anonymity.IsKAnonymous(g, 5) {
		t.Fatal("degraded output not k-anonymous")
	}
	if !anonymity.IsGeneralizationOf(s, tbl, g) {
		t.Fatal("degraded output not a generalization of the input")
	}
	total := 0
	for _, c := range clusters {
		total += c.Size()
	}
	if total != tbl.Len() {
		t.Fatalf("record count %d after degradation, want %d", total, tbl.Len())
	}
}

// TestPartitionNoDegradedSurfacesShardError pins the opt-out: with the
// fallback disabled, a quarantined shard fails the run with a typed
// *resilient.ShardError and a report covering the failure.
func TestPartitionNoDegradedSurfacesShardError(t *testing.T) {
	s, tbl := partitionFixture(t)
	p := fastResilience()
	p.NoDegraded = true
	opt := PartitionedOptions{K: 5, MaxChunk: 30, Resilience: p}

	in := fault.NewInjector(
		fault.Rule{Site: SitePartitionChunk, Hit: 1, Action: fault.Panic},
		fault.Rule{Site: SitePartitionChunk, Hit: 2, Action: fault.Panic},
		fault.Rule{Site: SitePartitionChunk, Hit: 3, Action: fault.Panic},
	)
	deactivate := fault.Activate(in)
	g, _, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
	deactivate()
	var se *resilient.ShardError
	if !errors.As(err, &se) || se.Stage != "quarantined" {
		t.Fatalf("err = %v, want quarantined *resilient.ShardError", err)
	}
	if g != nil {
		t.Fatal("failed run returned a table")
	}
	if rep == nil || rep.Quarantined != 1 {
		t.Fatalf("report = %v, want the quarantined shard recorded", rep)
	}
}

// TestPartitionDelayDeadlineRetry arms a long Delay at the chunk site and
// bounds attempts with a ShardDeadline: the delayed attempt must expire as
// a transient deadline failure and the retry must complete the shard.
func TestPartitionDelayDeadlineRetry(t *testing.T) {
	s, tbl := partitionFixture(t)
	p := fastResilience()
	p.ShardDeadline = 50 * time.Millisecond
	opt := PartitionedOptions{K: 5, MaxChunk: 30, Resilience: p}
	gClean, _, err := KAnonymizePartitioned(s, tbl, opt)
	if err != nil {
		t.Fatal(err)
	}

	in := fault.NewInjector(fault.Rule{Site: SitePartitionChunk, Hit: 1, Action: fault.Delay, Delay: 10 * time.Second})
	deactivate := fault.Activate(in)
	start := time.Now()
	g, _, rep, err := KAnonymizePartitionedReportCtx(context.Background(), s, tbl, opt)
	elapsed := time.Since(start)
	deactivate()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("delayed shard blocked the run for %v: the Delay did not respect the attempt deadline", elapsed)
	}
	sh := rep.Shards[0]
	if len(sh.Attempts) < 2 || sh.Attempts[0].Outcome != resilient.OutcomeDeadline {
		t.Fatalf("shard 0 attempts = %+v, want a deadline expiry then a retry", sh.Attempts)
	}
	if !genEqual(t, g, gClean) {
		t.Fatal("post-deadline output differs from clean run")
	}
}

// TestPartitionReportWorkerInvariant pins the determinism acceptance
// criterion: the same seeded fault rules produce byte-identical RunReport
// JSON and identical output at Workers 1 and 4.
func TestPartitionReportWorkerInvariant(t *testing.T) {
	run := func(workers int) ([]byte, *table.GenTable) {
		s, tbl := partitionFixture(t)
		opt := PartitionedOptions{K: 5, MaxChunk: 30, Workers: workers, Resilience: fastResilience()}
		in := fault.NewInjector(
			fault.Rule{Site: SitePartitionChunk, Hit: 2, Action: fault.Panic},
			fault.Rule{Site: SitePartitionChunk, Hit: 3, Action: fault.Panic},
		)
		deactivate := fault.Activate(in)
		g, _, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
		deactivate()
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
		t.Fatal("output differs between Workers 1 and 4 under identical faults")
	}
	// And across two identical runs at the same worker count.
	j1b, _ := run(1)
	if !bytes.Equal(j1, j1b) {
		t.Fatalf("RunReport differs across identical runs:\n%s\n%s", j1, j1b)
	}
}

// TestPartitionCheckpointResume kills a run mid-flight with an injected
// cancellation, then resumes from the collected shard checkpoints: the
// resumed run must skip the completed shards and produce output
// byte-identical to an uninterrupted run.
func TestPartitionCheckpointResume(t *testing.T) {
	s, tbl := partitionFixture(t)
	base := PartitionedOptions{K: 5, MaxChunk: 30, Resilience: fastResilience()}
	gClean, _, err := KAnonymizePartitioned(s, tbl, base)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1: cancel at the second shard's first attempt; collect shard
	// checkpoints as they complete.
	collected := map[int]resilient.ShardCheckpoint{}
	opt1 := base
	opt1.OnShard = func(ck resilient.ShardCheckpoint) { collected[ck.Shard] = ck }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := fault.NewInjector(fault.Rule{Site: SitePartitionChunk, Hit: 2, Action: fault.Cancel}).OnCancel(cancel)
	deactivate := fault.Activate(in)
	_, _, rep1, err := KAnonymizePartitionedReportCtx(ctx, s, tbl, opt1)
	deactivate()
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
	base := PartitionedOptions{K: 5, MaxChunk: 30, Resilience: fastResilience()}

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
	gClean, _, err := KAnonymizePartitioned(s, tbl, base)
	if err != nil {
		t.Fatal(err)
	}
	if !genEqual(t, g, gClean) {
		t.Fatal("output with stale checkpoints differs from clean run")
	}
}

// TestPartitionSeededFaultSweep is the acceptance sweep: seeded panic
// rules at every shard site plus a delay, across several seeds. Every run
// must complete with the correct record count and k-anonymous output
// byte-identical to the clean run, and a same-seed rerun must reproduce
// the identical RunReport.
func TestPartitionSeededFaultSweep(t *testing.T) {
	s, tbl := partitionFixture(t)
	opt := PartitionedOptions{K: 5, MaxChunk: 30, Resilience: fastResilience()}
	gClean, _, err := KAnonymizePartitioned(s, tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		run := func() ([]byte, *table.GenTable) {
			rules := fault.Seeded(seed, 6, SitePartitionChunk, resilient.SiteShardRetry)
			rules = append(rules, fault.Rule{Site: SitePartitionChunk, Hit: 5, Action: fault.Delay, Delay: time.Millisecond})
			in := fault.NewInjector(rules...)
			deactivate := fault.Activate(in)
			defer deactivate()
			g, clusters, rep, err := KAnonymizePartitionedReportCtx(nil, s, tbl, opt)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			total := 0
			for _, c := range clusters {
				total += c.Size()
			}
			if total != tbl.Len() {
				t.Fatalf("seed %d: record count %d, want %d", seed, total, tbl.Len())
			}
			return rep.JSON(), g
		}
		j1, g1 := run()
		j2, g2 := run()
		if !bytes.Equal(j1, j2) {
			t.Fatalf("seed %d: RunReport not reproducible:\n%s\n%s", seed, j1, j2)
		}
		if !genEqual(t, g1, g2) {
			t.Fatalf("seed %d: output not reproducible", seed)
		}
		if !genEqual(t, g1, gClean) {
			t.Fatalf("seed %d: faulted output differs from clean run", seed)
		}
		if !anonymity.IsKAnonymous(g1, 5) {
			t.Fatalf("seed %d: output not k-anonymous", seed)
		}
	}
}
