package resilient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"kanon/internal/fault"
)

// FuzzSupervisorDeterminism drives the supervisor over a fuzzer-chosen
// placement of failures — which shards fail and how (injected-fault panic,
// plain panic, engine error) — and requires every run to end in one of two
// ways: the fault-free release, or a typed *ShardError naming the first
// failing shard with no release at all. A failed run must have run and
// checkpointed exactly the shards before the failure, and resuming from
// those checkpoints without faults must give the fault-free release. Two
// runs over the same schedule must produce byte-identical reports.
func FuzzSupervisorDeterminism(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02})
	f.Add(int64(42), []byte{0xff, 0x03})
	f.Add(int64(7), []byte{0x10, 0x20, 0x30, 0x40, 0x55})
	f.Fuzz(func(t *testing.T, seed int64, schedule []byte) {
		if len(schedule) > 16 {
			schedule = schedule[:16]
		}
		// Shard i's output is a pure function of (seed, i), like a
		// deterministic engine over a fixed chunk.
		payload := func(i int) []byte { return []byte(fmt.Sprintf("%d/%d;", seed, i)) }
		// run supervises the schedule, with faults when faulty, restoring
		// the shards in cached; it returns the release (nil on error), the
		// checkpoints written and the indices of the shards that ran.
		run := func(faulty bool, cached map[int][]byte) ([]byte, map[int][]byte, []int, *RunReport, error) {
			results := make([][]byte, len(schedule))
			written := map[int][]byte{}
			var ran []int
			units := make([]Unit, len(schedule))
			for i, b := range schedule {
				mode := int(b % 8) // 0-2 fail, 3-7 succeed
				units[i] = Unit{Index: i, Records: 1, Run: func(ctx context.Context) error {
					ran = append(ran, i)
					if faulty {
						switch mode {
						case 0:
							panic(&fault.Injected{Site: "fuzz.site", Hit: int64(i + 1)})
						case 1:
							panic("shard bug")
						case 2:
							return errors.New("engine error")
						}
					}
					results[i] = payload(i)
					written[i] = results[i]
					return nil
				}}
				if ck, ok := cached[i]; ok {
					results[i] = ck
					units[i].Cached = true
				}
			}
			rep, err := Supervise(nil, units, nil)
			if err != nil {
				return nil, written, ran, rep, err
			}
			return bytes.Join(results, nil), written, ran, rep, nil
		}

		clean, _, _, _, err := run(false, nil)
		if err != nil {
			t.Fatalf("fault-free run failed: %v", err)
		}
		first := len(schedule)
		for i, b := range schedule {
			if b%8 < 3 {
				first = i
				break
			}
		}

		rel1, cks, ran, rep1, err1 := run(true, nil)
		_, _, _, rep2, err2 := run(true, nil)
		if !bytes.Equal(rep1.JSON(), rep2.JSON()) {
			t.Fatalf("reports differ for identical schedules:\n%s\n%s", rep1.JSON(), rep2.JSON())
		}
		if fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("errors differ: %v vs %v", err1, err2)
		}
		if first == len(schedule) {
			if err1 != nil || !bytes.Equal(rel1, clean) {
				t.Fatalf("schedule without failures: err %v, release %q, want %q", err1, rel1, clean)
			}
			return
		}
		var se *ShardError
		if !errors.As(err1, &se) || se.Shard != first {
			t.Fatalf("err = %v, want *ShardError for shard %d", err1, first)
		}
		if rel1 != nil {
			t.Fatalf("failed run released %q", rel1)
		}
		if len(ran) != first+1 || len(cks) != first {
			t.Fatalf("failed at shard %d but ran %v and checkpointed %d shards", first, ran, len(cks))
		}
		resumed, _, _, rep, err := run(false, cks)
		if err != nil || !bytes.Equal(resumed, clean) {
			t.Fatalf("resumed run: err %v, release %q, want %q", err, resumed, clean)
		}
		if rep.CheckpointHits != first {
			t.Fatalf("resumed run restored %d shards, want %d", rep.CheckpointHits, first)
		}
	})
}
