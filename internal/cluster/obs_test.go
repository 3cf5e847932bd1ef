package cluster

import (
	"context"
	"reflect"
	"testing"

	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/obs"
)

// TestObserverConsistentAcrossWorkers attaches a concurrent Metrics
// recorder to the engine at 1, 2, 4 and 8 workers and requires identical
// counter totals, peaks and event counts from every run: events are
// emitted per logical unit of work, so sharding the scans across helpers
// must not change what is observed. Under -race this doubles as the
// concurrent-recorder safety proof — the pool helpers all record into the
// same aggregator.
func TestObserverConsistentAcrossWorkers(t *testing.T) {
	ds := datagen.Adult(300, 5)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	var base obs.RunStats
	for i, workers := range []int{1, 2, 4, 8} {
		met := obs.NewMetrics()
		ctx := obs.With(context.Background(), met)
		if _, _, err := AgglomerateStatsCtx(ctx, s, ds.Table, AggloOptions{K: 10, Distance: D3{}, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st := met.Snapshot()
		if st.Counter("cluster.merges") == 0 || st.Counter("cluster.dist_evals") == 0 {
			t.Fatalf("workers=%d: engine counters missing: %v", workers, st.Counters)
		}
		// The kernel default routes through the lazy heap path, so its
		// counters must be present (and, via the DeepEqual below,
		// worker-invariant).
		if st.Counter(obs.CounterHeapPushes) == 0 || st.Counter(obs.CounterTilesScanned) == 0 {
			t.Fatalf("workers=%d: lazy-heap counters missing: %v", workers, st.Counters)
		}
		if i == 0 {
			base = st
			continue
		}
		if !reflect.DeepEqual(st.Counters, base.Counters) {
			t.Errorf("workers=%d: counters differ from sequential run:\n  seq: %v\n  got: %v",
				workers, base.Counters, st.Counters)
		}
		if !reflect.DeepEqual(st.Peaks, base.Peaks) {
			t.Errorf("workers=%d: peaks differ from sequential run: %v vs %v", workers, base.Peaks, st.Peaks)
		}
		if st.Events != base.Events {
			t.Errorf("workers=%d: %d events, sequential run had %d", workers, st.Events, base.Events)
		}
	}
}

// TestObserverPhaseBrackets checks the engine's phase discipline: init,
// merge and absorb each start and end exactly once per run, in order.
func TestObserverPhaseBrackets(t *testing.T) {
	ds := datagen.Adult(120, 5)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	ctx := obs.With(context.Background(), met)
	if _, _, err := AgglomerateStatsCtx(ctx, s, ds.Table, AggloOptions{K: 5, Distance: D3{}, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	st := met.Snapshot()
	wantOrder := []string{PhaseInit, PhaseMerge, PhaseAbsorb}
	if len(st.Phases) != len(wantOrder) {
		t.Fatalf("phases = %+v, want %v", st.Phases, wantOrder)
	}
	for i, p := range st.Phases {
		if p.Name != wantOrder[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Name, wantOrder[i])
		}
		if p.Starts != 1 {
			t.Errorf("phase %q entered %d times, want 1", p.Name, p.Starts)
		}
	}
}
