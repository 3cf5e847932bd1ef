package kanon

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"kanon/internal/core"
	"kanon/internal/fault"
	"kanon/internal/resilient"
)

// resilienceCSV runs one partitioned anonymization and returns the result
// plus its serialized output bytes.
func resilienceCSV(t *testing.T, tbl *Table, opt Options) (*Result, []byte) {
	t.Helper()
	res, err := Anonymize(tbl, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestFacadeResilienceReport pins the facade surface on a fault-free run:
// a partitioned run carries a clean ResilienceReport whose shard count
// agrees with the resilient.shards counter in Stats(), and a
// non-partitioned run carries none.
func TestFacadeResilienceReport(t *testing.T) {
	tbl := Adult(240, 11)
	res, _ := resilienceCSV(t, tbl, Options{K: 4, Notion: NotionK, MaxChunk: 64})
	rep := res.Resilience()
	if rep == nil {
		t.Fatal("partitioned run returned a nil ResilienceReport")
	}
	if !rep.Clean() {
		t.Errorf("fault-free run not clean: %+v", rep)
	}
	if len(rep.Shards) < 2 {
		t.Fatalf("expected ≥ 2 shards at MaxChunk 64 over 240 records, got %d", len(rep.Shards))
	}
	if got := res.Stats().Counter("resilient.shards"); got != int64(len(rep.Shards)) {
		t.Errorf("resilient.shards counter = %d, report has %d shards", got, len(rep.Shards))
	}
	records := 0
	for _, s := range rep.Shards {
		records += s.Records
	}
	if records != tbl.Len() {
		t.Errorf("shard records sum to %d, table has %d", records, tbl.Len())
	}

	plain, err := Anonymize(tbl, Options{K: 4, Notion: NotionK})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Resilience() != nil {
		t.Error("non-partitioned run returned a ResilienceReport")
	}
}

// TestFacadeFaultedRunSafeAndByteIdentical is the fault contract of the
// partitioned pipeline (DESIGN.md §14), at 1 and 4 workers: under seeded
// faults at the shard site, and under a storm that poisons every shard, a
// run returns no Result and a *resilient.ShardError naming the first
// faulted shard, with the panic payload redacted. OnShard has seen exactly
// the shards before it, and resuming from those checkpoints without faults
// releases the fault-free bytes with the fault-free attack evaluation.
func TestFacadeFaultedRunSafeAndByteIdentical(t *testing.T) {
	tbl := Adult(300, 99)
	type scenario struct {
		name  string
		rules []fault.Rule
	}
	var scenarios []scenario
	for seed := int64(1); seed <= 5; seed++ {
		for _, maxHit := range []int64{4, 8} {
			scenarios = append(scenarios, scenario{
				fmt.Sprintf("seed=%d/maxHit=%d", seed, maxHit),
				fault.Seeded(seed, maxHit, core.SitePartitionChunk),
			})
		}
	}
	scenarios = append(scenarios, scenario{"storm", []fault.Rule{{Site: core.SitePartitionChunk, Hit: 0, Action: fault.Panic}}})

	var cleanCSV []byte
	var cleanAttack AttackSummary
	for _, workers := range []int{1, 4} {
		opt := Options{K: 4, Notion: NotionK, MaxChunk: 30, Workers: workers}
		res, csv := resilienceCSV(t, tbl, opt)
		if shards := len(res.Resilience().Shards); shards < 8 {
			t.Fatalf("fixture has %d shards; every seeded fault (hit ≤ 8) must land on a shard", shards)
		}
		attack, err := res.AttackEvaluation(opt.K)
		if err != nil {
			t.Fatal(err)
		}
		if cleanCSV == nil {
			cleanCSV, cleanAttack = csv, attack
		} else if !bytes.Equal(csv, cleanCSV) || attack != cleanAttack {
			t.Fatalf("workers=%d: fault-free release differs from workers=1", workers)
		}

		for _, sc := range scenarios {
			name := fmt.Sprintf("workers=%d/%s", workers, sc.name)
			want := int(sc.rules[0].Hit) - 1 // each shard fires the site once
			if want < 0 {
				want = 0
			}
			var checkpoints []ShardCheckpoint
			faulted := opt
			faulted.OnShard = func(ck ShardCheckpoint) { checkpoints = append(checkpoints, ck) }
			deactivate := fault.Activate(fault.NewInjector(sc.rules...))
			res, err := Anonymize(tbl, faulted)
			deactivate()

			if res != nil {
				t.Fatalf("%s: faulted run returned a Result", name)
			}
			var se *resilient.ShardError
			var pe *resilient.PanicError
			var inj *fault.Injected
			if !errors.As(err, &se) || !errors.As(err, &pe) || !errors.As(err, &inj) {
				t.Fatalf("%s: err = %v (%T), want *ShardError over a contained *fault.Injected", name, err, err)
			}
			if se.Shard != want {
				t.Errorf("%s: failed shard = %d, want %d", name, se.Shard, want)
			}
			if strings.Contains(err.Error(), inj.Error()) {
				t.Errorf("%s: error %q carries the raw panic payload", name, err)
			}
			if len(checkpoints) != want {
				t.Fatalf("%s: %d shards checkpointed before shard %d", name, len(checkpoints), want)
			}
			for i, ck := range checkpoints {
				if ck.Shard != i {
					t.Fatalf("%s: checkpoint %d is shard %d", name, i, ck.Shard)
				}
			}

			resumed := opt
			resumed.CompletedShards = checkpoints
			res, csv := resilienceCSV(t, tbl, resumed)
			if !bytes.Equal(csv, cleanCSV) {
				t.Errorf("%s: resumed release differs from the fault-free run", name)
			}
			if hits := res.Resilience().CheckpointHits; hits != want {
				t.Errorf("%s: resumed run restored %d shards, want %d", name, hits, want)
			}
			attack, err := res.AttackEvaluation(opt.K)
			if err != nil {
				t.Fatal(err)
			}
			if attack != cleanAttack {
				t.Errorf("%s: attack evaluation of the resumed release drifted\n  got  %+v\n  want %+v", name, attack, cleanAttack)
			}
		}
	}
}

// TestFacadeCheckpointResume collects shard checkpoints via OnShard and
// replays them via CompletedShards: every shard must restore as a
// checkpoint hit, and the resumed output must be byte-identical.
func TestFacadeCheckpointResume(t *testing.T) {
	tbl := Adult(240, 11)
	opt := Options{K: 4, Notion: NotionK, MaxChunk: 64}

	var collected []ShardCheckpoint
	opt.OnShard = func(ck ShardCheckpoint) { collected = append(collected, ck) }
	res, firstCSV := resilienceCSV(t, tbl, opt)
	if len(collected) != len(res.Resilience().Shards) {
		t.Fatalf("OnShard fired %d times for %d shards", len(collected), len(res.Resilience().Shards))
	}

	opt.OnShard = nil
	opt.CompletedShards = collected
	resumed, resumedCSV := resilienceCSV(t, tbl, opt)
	rep := resumed.Resilience()
	if rep.CheckpointHits != len(collected) {
		t.Errorf("CheckpointHits = %d, want %d", rep.CheckpointHits, len(collected))
	}
	for _, s := range rep.Shards {
		if !s.FromCheckpoint {
			t.Errorf("shard %d was recomputed despite a valid checkpoint", s.Shard)
		}
	}
	if !bytes.Equal(resumedCSV, firstCSV) {
		t.Error("resumed output differs from the original run")
	}

	// A parameter change invalidates the signatures: the checkpoints must
	// be ignored, not trusted into a wrong-k release.
	stale := Options{K: 5, Notion: NotionK, MaxChunk: 64, CompletedShards: collected}
	staleRes, err := Anonymize(tbl, stale)
	if err != nil {
		t.Fatal(err)
	}
	if hits := staleRes.Resilience().CheckpointHits; hits != 0 {
		t.Errorf("stale checkpoints scored %d hits, want 0", hits)
	}
	if vr := staleRes.Verify(5); !vr.KAnonymous {
		t.Errorf("run with stale checkpoints is not 5-anonymous: %+v", vr)
	}
}
