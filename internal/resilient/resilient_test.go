package resilient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"kanon/internal/obs"
	"kanon/internal/par"
)

// countingUnit returns a unit whose Run counts its calls into *calls and
// then calls fail (nil: succeed).
func countingUnit(idx int, calls *int, fail func() error) Unit {
	return Unit{
		Index:   idx,
		Records: 10,
		Run: func(ctx context.Context) error {
			*calls++
			if fail != nil {
				return fail()
			}
			return nil
		},
	}
}

// testFault is the panic value of the shards these tests fail on purpose,
// an error so errors.As can reach it through the *PanicError.
type testFault struct{ shard int }

func (e *testFault) Error() string { return fmt.Sprintf("test fault in shard %d", e.shard) }

// injectedFault panics with a *testFault, as a failing shard does.
func injectedFault() error { panic(&testFault{shard: 1}) }

// TestFaultedShardFailsRun: a shard that dies on an injected fault runs once
// and stops the run with a *ShardError naming it. There is no retry and no
// fallback, and the shards after it never run.
func TestFaultedShardFailsRun(t *testing.T) {
	var calls [3]int
	units := []Unit{
		countingUnit(0, &calls[0], nil),
		countingUnit(1, &calls[1], injectedFault),
		countingUnit(2, &calls[2], nil),
	}
	rep, err := Supervise(nil, units, nil)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("err = %v, want *ShardError{Shard: 1}", err)
	}
	var tf *testFault
	if !errors.As(err, &tf) {
		t.Fatalf("err = %v does not reach the *testFault", err)
	}
	if calls != [3]int{1, 1, 0} {
		t.Fatalf("Run calls = %v, want [1 1 0]", calls)
	}
	if len(rep.Shards) != 2 || rep.Shards[0].Outcome != OutcomeOK || rep.Shards[1].Outcome != OutcomeFailed {
		t.Fatalf("report = %s, want shard 0 ok and shard 1 failed", rep)
	}
}

// TestEngineErrorFailsRun: an engine error stops the run the same way, with
// the error reachable through the *ShardError.
func TestEngineErrorFailsRun(t *testing.T) {
	bad := errors.New("bad input")
	var calls int
	u := countingUnit(3, &calls, func() error { return bad })
	rep, err := Supervise(nil, []Unit{u}, nil)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 3 || !errors.Is(err, bad) {
		t.Fatalf("err = %v, want *ShardError{Shard: 3} wrapping the engine error", err)
	}
	if calls != 1 {
		t.Fatalf("Run called %d times, want 1", calls)
	}
	if got := rep.Shards[0]; got.Outcome != OutcomeFailed || got.Err != bad.Error() {
		t.Fatalf("shard report = %+v, want failed with the engine error", got)
	}
}

// TestPanicContainedAsShardError: a panic, on the driving goroutine or
// inside a worker pool, is contained into a *PanicError under the
// *ShardError, and no message carries the payload (DESIGN.md §16).
func TestPanicContainedAsShardError(t *testing.T) {
	const secret = "secret-diagnosis"
	for _, tc := range []struct {
		name  string
		panic func()
	}{
		{"direct", func() { panic(secret) }},
		{"pool", func() { panic(&par.TaskPanic{Value: secret}) }},
	} {
		var calls int
		u := countingUnit(0, &calls, func() error { tc.panic(); return nil })
		rep, err := Supervise(nil, []Unit{u}, nil)
		var se *ShardError
		var pe *PanicError
		if !errors.As(err, &se) || !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want *ShardError over *PanicError", tc.name, err)
		}
		if pe.Value != secret {
			t.Errorf("%s: panic value = %v, want the original payload", tc.name, pe.Value)
		}
		if calls != 1 {
			t.Errorf("%s: Run called %d times, want 1", tc.name, calls)
		}
		for _, msg := range []string{err.Error(), rep.String(), string(rep.JSON())} {
			if strings.Contains(msg, secret) {
				t.Errorf("%s: %q carries the panic payload", tc.name, msg)
			}
		}
	}
}

func TestParentCancelAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls [3]int
	units := []Unit{
		{Index: 0, Run: func(context.Context) error { calls[0]++; return nil }},
		{Index: 1, Run: func(context.Context) error { calls[1]++; cancel(); return nil }},
		{Index: 2, Run: func(context.Context) error { calls[2]++; return nil }},
	}
	rep, err := Supervise(ctx, units, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls[2] != 0 {
		t.Error("shard after the cancellation still ran")
	}
	// Shard 1 completed (its Run returned nil before the done-check on
	// shard 2), so the abort lands on shard 2.
	if last := rep.Shards[len(rep.Shards)-1]; last.Shard != 2 || last.Outcome != OutcomeAborted {
		t.Fatalf("last shard = %+v, want shard 2 aborted", last)
	}
}

func TestParentCancelDuringAttemptAborts(t *testing.T) {
	// A failure observed while the run-level context is already done is an
	// abort, not a shard failure: the run is resumable.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	u := Unit{Index: 0, Run: func(context.Context) error {
		cancel()
		return fmt.Errorf("engine saw: %w", context.Canceled)
	}}
	rep, err := Supervise(ctx, []Unit{u}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *ShardError
	if errors.As(err, &se) {
		t.Fatalf("err = %v, want a cancellation, not a shard failure", err)
	}
	if got := rep.Shards[0].Outcome; got != OutcomeAborted {
		t.Fatalf("outcome = %s, want aborted", got)
	}
}

func TestCachedShardSkipsRun(t *testing.T) {
	u := Unit{
		Index:  0,
		Cached: true,
		Run:    func(context.Context) error { t.Fatal("cached shard ran"); return nil },
	}
	rep, err := Supervise(nil, []Unit{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Shards[0]
	if !sr.FromCheckpoint || sr.Outcome != OutcomeCheckpoint {
		t.Fatalf("shard = %+v, want checkpoint restore", sr)
	}
	if rep.CheckpointHits != 1 {
		t.Errorf("CheckpointHits = %d, want 1", rep.CheckpointHits)
	}
}

func TestReportByteIdenticalAcrossRuns(t *testing.T) {
	run := func() []byte {
		var c0, c2 int
		units := []Unit{
			countingUnit(0, &c0, nil),
			{Index: 1, Records: 7, Cached: true},
			countingUnit(2, &c2, func() error { panic("shard bug") }),
		}
		rep, err := Supervise(nil, units, nil)
		if err == nil {
			t.Fatal("a panicking shard did not fail the run")
		}
		return rep.JSON()
	}
	b1, b2 := run(), run()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("reports differ across identical runs:\n%s\n%s", b1, b2)
	}
	if len(b1) == 0 || !bytes.Contains(b1, []byte(`"shards"`)) {
		t.Fatalf("implausible report JSON: %s", b1)
	}
}

func TestSuperviseEmitsCounters(t *testing.T) {
	m := obs.NewMetrics()
	o := obs.NewRun(m)
	var c0, c2 int
	units := []Unit{
		countingUnit(0, &c0, nil),
		{Index: 1, Cached: true},
		countingUnit(2, &c2, func() error { return errors.New("det") }),
	}
	if _, err := Supervise(nil, units, o); err == nil {
		t.Fatal("a failing shard did not fail the run")
	}
	st := m.Snapshot()
	want := map[string]int64{
		obs.CounterResilientShards:         3,
		obs.CounterResilientCheckpointHits: 1,
	}
	for name, n := range want {
		if got := st.Counter(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

func TestReportString(t *testing.T) {
	var calls int
	units := []Unit{
		{Index: 0, Records: 4, Cached: true},
		countingUnit(1, &calls, func() error { return errors.New("bad input") }),
	}
	rep, _ := Supervise(nil, units, nil)
	s := rep.String()
	for _, frag := range []string{"shards=2", "checkpoint_hits=1", "shard 0 (4 records): checkpoint", "shard 1 (10 records): failed: bad input"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q lacks %q", s, frag)
		}
	}
}
