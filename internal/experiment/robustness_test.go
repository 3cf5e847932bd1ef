package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"kanon/internal/obs"
)

// robustConfig is small and fully deterministic: Workers 1 runs the jobs
// one after another on one goroutine, so event counts map to fixed jobs,
// and Deterministic zeroes every wall-clock field.
func robustConfig() Config {
	return Config{
		NART: 60, NADT: 60, NCMC: 60, Seed: 7, Ks: []int{3},
		Workers: 1, Verify: true, Deterministic: true,
	}
}

// recordFunc adapts a function to obs.Recorder. Under Workers 1 a run's
// engine events reach it on the goroutine executing the run, inside the
// run's panic recovery.
type recordFunc func(obs.Event)

func (f recordFunc) Record(e obs.Event) { f(e) }

func marshalRuns(t *testing.T, runs []Run) []string {
	t.Helper()
	out := make([]string, len(runs))
	for i, r := range runs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestRunBlockInjectedPanicIsolated is the fault-containment property:
// a panic in one experiment run, raised here by the Observer in the middle
// of the block, must surface as that run's Error field while every other
// run stays byte-identical to the fault-free suite.
func TestRunBlockInjectedPanicIsolated(t *testing.T) {
	cfg := robustConfig()
	clean, err := cfg.RunBlock("ART", EM)
	if err != nil {
		t.Fatal(err)
	}

	// Count the block's events, then panic at the middle one.
	events := 0
	cfg.Observer = recordFunc(func(obs.Event) { events++ })
	if _, err := cfg.RunBlock("ART", EM); err != nil {
		t.Fatal(err)
	}
	at, seen := events/2, 0
	cfg.Observer = recordFunc(func(obs.Event) {
		if seen++; seen == at {
			panic("observer fault")
		}
	})
	faulty, err := cfg.RunBlock("ART", EM)
	if err != nil {
		t.Fatalf("block with one panicking run must still complete: %v", err)
	}

	cleanJSON := marshalRuns(t, clean.Runs)
	faultyJSON := marshalRuns(t, faulty.Runs)
	if len(cleanJSON) != len(faultyJSON) {
		t.Fatalf("%d vs %d runs", len(cleanJSON), len(faultyJSON))
	}
	failed := 0
	for i := range faultyJSON {
		if faulty.Runs[i].Error != "" {
			failed++
			if !strings.Contains(faulty.Runs[i].Error, "run panicked") {
				t.Errorf("run %d Error = %q, want a recovered panic", i, faulty.Runs[i].Error)
			}
			if faulty.Runs[i].Loss != 0 || faulty.Runs[i].Verified {
				t.Errorf("failed run %d carries partial output: %+v", i, faulty.Runs[i])
			}
			continue
		}
		if faultyJSON[i] != cleanJSON[i] {
			t.Errorf("run %d differs from fault-free suite:\n  clean:  %s\n  faulty: %s",
				i, cleanJSON[i], faultyJSON[i])
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed runs, want exactly 1", failed)
	}
	// A failed run must not poison series selection: every series the
	// clean block chose must still carry finite losses.
	for k, v := range faulty.BestKAnon.Losses {
		if v <= 0 {
			t.Errorf("BestKAnon loss at k=%d is %v after a run panicked", k, v)
		}
	}
}

// TestRunBlockCheckpointRoundTrip replays half the runs through
// Config.Completed and asserts the assembled block is byte-identical to
// an uninterrupted one, with OnRun firing only for the fresh half.
func TestRunBlockCheckpointRoundTrip(t *testing.T) {
	cfg := robustConfig()
	full, err := cfg.RunBlock("CMC", LM)
	if err != nil {
		t.Fatal(err)
	}
	fullJSON, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a mid-suite kill: only the first half made the checkpoint.
	cfg.Completed = make(map[string]Run)
	for _, r := range full.Runs[:len(full.Runs)/2] {
		cfg.Completed[r.Key()] = r
	}
	var fresh []Run
	cfg.OnRun = func(r Run) { fresh = append(fresh, r) }

	resumed, err := cfg.RunBlock("CMC", LM)
	if err != nil {
		t.Fatal(err)
	}
	resumedJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(fullJSON) != string(resumedJSON) {
		t.Errorf("resumed block is not byte-identical:\n  full:    %s\n  resumed: %s",
			fullJSON, resumedJSON)
	}
	if want := len(full.Runs) - len(full.Runs)/2; len(fresh) != want {
		t.Errorf("OnRun fired %d times, want %d (replayed runs must not re-persist)",
			len(fresh), want)
	}
	for _, r := range fresh {
		if _, ok := cfg.Completed[r.Key()]; ok {
			t.Errorf("OnRun fired for checkpointed run %s", r.Key())
		}
	}
}

// TestRunBlockSuiteCancel cancels the whole suite mid-block, at the first
// engine event of the fourth run (the driver reports its checkpoint
// writes only once the block's runs are over): RunBlock must return
// ctx.Err() with no block at all, and the run interrupted by the
// cancellation must not have been handed to OnRun as failed.
func TestRunBlockSuiteCancel(t *testing.T) {
	cfg := robustConfig()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	var persisted []Run
	cfg.OnRun = func(r Run) { persisted = append(persisted, r) }
	fourthStarted := false
	cfg.Observer = recordFunc(func(obs.Event) {
		if len(persisted) == 3 && !fourthStarted {
			fourthStarted = true
			cancel()
		}
	})

	blk, err := cfg.RunBlock("ADT", EM)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if blk != nil {
		t.Fatal("cancelled suite returned a partial block")
	}
	if !fourthStarted {
		t.Fatal("the fourth run never started: the cancellation landed between runs")
	}
	if len(persisted) != 3 {
		t.Fatalf("%d runs persisted, want the 3 before the cancellation", len(persisted))
	}
	for _, r := range persisted {
		if r.Error != "" {
			t.Errorf("suite cancellation recorded run %s as failed: %q", r.Key(), r.Error)
		}
	}
}

// TestRunExtensionsCancel hands the attack (E20), scale (E19) and
// recoding (E15/E16) experiments an already-cancelled Config.Ctx: each must stop with
// context.Canceled and no rows, rather than run its pipelines to the end.
func TestRunExtensionsCancel(t *testing.T) {
	cfg := robustConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx

	attack, err := cfg.RunAttack("ADT")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunAttack: err = %v, want context.Canceled", err)
	}
	if len(attack) != 0 {
		t.Errorf("RunAttack: %d rows from a cancelled run", len(attack))
	}
	scale, err := cfg.RunScale([]int{60}, 3, 30, 60)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunScale: err = %v, want context.Canceled", err)
	}
	if len(scale) != 0 {
		t.Errorf("RunScale: %d rows from a cancelled run", len(scale))
	}
	rec, qs, err := cfg.RunRecoding("ART", 10)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunRecoding: err = %v, want context.Canceled", err)
	}
	if len(rec)+len(qs) != 0 {
		t.Errorf("RunRecoding: %d rows from a cancelled run", len(rec)+len(qs))
	}
}
