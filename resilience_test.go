package kanon

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"kanon/internal/core"
	"kanon/internal/par"
)

// shardFault is the panic value of a shard these tests fail on purpose.
type shardFault struct{ shard int }

func (e *shardFault) Error() string { return fmt.Sprintf("test fault in shard %d", e.shard) }

// seededShard spreads seed over [1, maxHit] with a splitmix64 hash: the
// seeded scenarios fail the run at shard seededShard(seed, maxHit)-1, and
// the fixed derivation keeps that shard reproducible per seed (EXPERIMENTS.md
// E21 tabulates it).
func seededShard(seed, maxHit int64) int {
	x := uint64(seed) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x%uint64(maxHit)) + 1
}

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

// shardCounters returns a partitioned run's resilient.shards and
// resilient.checkpoint_hits counters.
func shardCounters(res *Result) (shards, hits int) {
	st := res.Stats()
	return int(st.Counter("resilient.shards")), int(st.Counter("resilient.checkpoint_hits"))
}

// TestFacadeFaultedRunSafeAndByteIdentical is the fault contract of the
// partitioned pipeline (DESIGN.md §14), at 1 and 4 workers: under seeded
// shard panics, and under a storm that poisons every shard, a run returns
// no Result and a *core.ShardError naming the first faulted shard,
// with the panic payload redacted. The panics come from OnShard, which runs
// inside each shard's containment; the shards before the faulted one were
// checkpointed, and resuming from those checkpoints without faults
// releases the fault-free bytes with the fault-free attack evaluation.
func TestFacadeFaultedRunSafeAndByteIdentical(t *testing.T) {
	tbl := Adult(300, 99)
	type scenario struct {
		name  string
		fails func(shard int) bool
		want  int // the shard that fails the run
	}
	var scenarios []scenario
	for seed := int64(1); seed <= 5; seed++ {
		for _, maxHit := range []int64{4, 8} {
			want := seededShard(seed, maxHit) - 1
			scenarios = append(scenarios, scenario{
				fmt.Sprintf("seed=%d/maxHit=%d", seed, maxHit),
				func(shard int) bool { return shard == want }, want,
			})
		}
	}
	scenarios = append(scenarios, scenario{"storm", func(int) bool { return true }, 0})

	var cleanCSV []byte
	var cleanAttack AttackSummary
	for _, workers := range []int{1, 4} {
		opt := Options{K: 4, Notion: NotionK, MaxChunk: 30, Workers: workers}
		res, csv := resilienceCSV(t, tbl, opt)
		if shards, _ := shardCounters(res); shards < 8 {
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
			want := sc.want
			var checkpoints []ShardCheckpoint
			faulted := opt
			faulted.OnShard = func(ck ShardCheckpoint) {
				if sc.fails(ck.Shard) {
					panic(&shardFault{shard: ck.Shard})
				}
				checkpoints = append(checkpoints, ck)
			}
			res, err := Anonymize(tbl, faulted)

			if res != nil {
				t.Fatalf("%s: faulted run returned a Result", name)
			}
			var se *core.ShardError
			var tp *par.TaskPanic
			var sf *shardFault
			if !errors.As(err, &se) || !errors.As(err, &tp) || !errors.As(err, &sf) {
				t.Fatalf("%s: err = %v (%T), want *ShardError over a contained *shardFault", name, err, err)
			}
			if se.Shard != want {
				t.Errorf("%s: failed shard = %d, want %d", name, se.Shard, want)
			}
			if strings.Contains(err.Error(), sf.Error()) {
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
			if _, hits := shardCounters(res); hits != want {
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
	if shards, hits := shardCounters(res); len(collected) != shards || shards < 2 || hits != 0 {
		t.Fatalf("OnShard fired %d times for %d shards (%d restored), want ≥ 2 and none restored", len(collected), shards, hits)
	}

	opt.OnShard = nil
	opt.CompletedShards = collected
	resumed, resumedCSV := resilienceCSV(t, tbl, opt)
	if _, hits := shardCounters(resumed); hits != len(collected) {
		t.Errorf("%d shards restored, want all %d: a shard was recomputed despite a valid checkpoint", hits, len(collected))
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
	if _, hits := shardCounters(staleRes); hits != 0 {
		t.Errorf("stale checkpoints scored %d hits, want 0", hits)
	}
	if vr := staleRes.Verify(5); !vr.KAnonymous {
		t.Errorf("run with stale checkpoints is not 5-anonymous: %+v", vr)
	}
}
