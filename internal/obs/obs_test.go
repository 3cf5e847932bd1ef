package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// capture is a test Recorder storing every event.
type capture struct {
	mu     sync.Mutex
	events []Event
}

func (c *capture) Record(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func TestRunEmitsStampedEvents(t *testing.T) {
	c := &capture{}
	r := NewRun(c)
	if !r.Enabled() {
		t.Fatal("armed run reports disabled")
	}
	end := r.Phase("p")
	r.Counter("widgets", 3)
	r.Peak("live", 42)
	r.Sched("pool.size", 4)
	end()

	want := []struct {
		kind Kind
		n    int64
	}{
		{KindPhaseStart, 0}, {KindCounter, 3},
		{KindPeak, 42}, {KindSched, 4}, {KindPhaseEnd, 0},
	}
	if len(c.events) != len(want) {
		t.Fatalf("%d events, want %d", len(c.events), len(want))
	}
	var prev time.Duration
	for i, e := range c.events {
		if e.Kind != want[i].kind || e.N != want[i].n {
			t.Errorf("event %d = %v/%d, want %v/%d", i, e.Kind, e.N, want[i].kind, want[i].n)
		}
		if e.T < prev {
			t.Errorf("event %d timestamp %v went backwards from %v", i, e.T, prev)
		}
		prev = e.T
	}
}

func TestNilRunIsNoop(t *testing.T) {
	var r *Run
	if r.Enabled() {
		t.Error("nil run reports enabled")
	}
	// None of these may panic.
	r.Counter("c", 1)
	r.Peak("p", 1)
	r.Sched("s", 1)
	r.Phase("p")()
}

// TestNoopObserverZeroAlloc is the overhead guard for the disabled path:
// the calls a pipeline makes (phase brackets, counters, peaks, scheduler
// gauges) must not allocate when observability is off. The CI bench-smoke
// job runs this test alongside the benchmarks.
func TestNoopObserverZeroAlloc(t *testing.T) {
	var r *Run
	allocs := testing.AllocsPerRun(1000, func() {
		r.Counter("cluster.dist_evals", 1)
		r.Peak("cluster.live_peak", 5)
		r.Sched("pool.spans", 2)
		end := r.Phase("cluster.init")
		end()
	})
	if allocs != 0 {
		t.Fatalf("disabled observer path allocates %.1f per run, want 0", allocs)
	}
}

// TestFromNilContextZeroAlloc guards the other disabled entry point: the
// once-per-pipeline From(nil) lookup.
func TestFromNilContextZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		if From(nil) != nil {
			t.Fatal("From(nil) != nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("From(nil) allocates %.1f per run, want 0", allocs)
	}
}

func TestContextPlumbing(t *testing.T) {
	if From(context.Background()) != nil {
		t.Error("unarmed context yields a run")
	}
	c := &capture{}
	ctx := With(nil, c) // nil ctx → Background
	run := From(ctx)
	if run == nil {
		t.Fatal("armed context yields no run")
	}
	run.Counter("x", 1)
	if len(c.events) != 1 {
		t.Fatalf("%d events, want 1", len(c.events))
	}
	if With(ctx, nil) != ctx {
		t.Error("With(ctx, nil) should return ctx unchanged")
	}
	ctx2 := WithRun(nil, run)
	if From(ctx2) != run {
		t.Error("WithRun round-trip failed")
	}
	if WithRun(ctx, nil) != ctx {
		t.Error("WithRun(ctx, nil) should return ctx unchanged")
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Error("empty Tee should be nil")
	}
	c := &capture{}
	if Tee(nil, c) != Recorder(c) {
		t.Error("single-recorder Tee should unwrap")
	}
	c2 := &capture{}
	both := Tee(c, c2)
	both.Record(Event{Kind: KindCounter, Name: "x", N: 1})
	if len(c.events) != 1 || len(c2.events) != 1 {
		t.Errorf("tee delivered %d/%d events, want 1/1", len(c.events), len(c2.events))
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics()
	r := NewRun(m)

	end := r.Phase("cluster.init")
	r.Counter("cluster.init.scans", 2)
	end()
	end = r.Phase("cluster.merge")
	r.Counter("cluster.merges", 2)
	r.Counter("cluster.merges", 3) // a second run's contribution adds up
	r.Counter("cluster.dist_evals", 123)
	r.Peak("cluster.live_peak", 50)
	r.Peak("cluster.live_peak", 30) // lower: must not regress the peak
	r.Sched("pool.spans", 8)
	end()
	// Re-entrant phase: a second bracket accumulates.
	end = r.Phase("cluster.merge")
	end()

	s := m.Snapshot()
	for name, want := range map[string]int64{
		"cluster.init.scans": 2,
		"cluster.merges":     5,
		"cluster.dist_evals": 123,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if s.Peaks["cluster.live_peak"] != 50 {
		t.Errorf("peak = %d, want 50", s.Peaks["cluster.live_peak"])
	}
	if s.Sched["pool.spans"] != 8 {
		t.Errorf("sched = %d, want 8", s.Sched["pool.spans"])
	}
	if len(s.Phases) != 2 || s.Phases[0].Name != "cluster.init" || s.Phases[1].Name != "cluster.merge" {
		t.Fatalf("phases = %+v, want [cluster.init cluster.merge]", s.Phases)
	}
	if s.Phases[1].Starts != 2 {
		t.Errorf("merge starts = %d, want 2", s.Phases[1].Starts)
	}
	if got := s.Phase("cluster.init"); got.Starts != 1 {
		t.Errorf("Phase lookup = %+v", got)
	}
	if got := s.Phase("missing"); got.Name != "missing" || got.Starts != 0 {
		t.Errorf("missing phase lookup = %+v", got)
	}
	if s.Events != 13 || s.WallNanos < 0 {
		t.Errorf("events=%d wall=%d", s.Events, s.WallNanos)
	}

	// JSON round-trips.
	var back RunStats
	if err := json.Unmarshal([]byte(s.JSON()), &back); err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if back.Counter("cluster.dist_evals") != 123 {
		t.Errorf("round-trip counter = %d", back.Counter("cluster.dist_evals"))
	}

	// Normalize zeroes times and drops sched, keeps counters.
	s.Normalize()
	if s.WallNanos != 0 || s.Sched != nil {
		t.Errorf("Normalize left wall=%d sched=%v", s.WallNanos, s.Sched)
	}
	for _, p := range s.Phases {
		if p.WallNanos != 0 {
			t.Errorf("Normalize left phase %s wall=%d", p.Name, p.WallNanos)
		}
	}
	if s.Counter("cluster.dist_evals") != 123 {
		t.Error("Normalize dropped counters")
	}
}

// TestMetricsRecordAllocatesNothing pins the aggregator's steady state:
// once a name exists, counter, peak and scheduler events allocate nothing,
// and they still add up.
func TestMetricsRecordAllocatesNothing(t *testing.T) {
	m := NewMetrics()
	events := []Event{
		{Kind: KindCounter, Name: "cluster.init.scans", N: 3},
		{Kind: KindCounter, Name: "cluster.merges", N: 5},
		{Kind: KindPeak, Name: "cluster.live_peak", N: 2},
		{Kind: KindSched, Name: "pool.spans", N: 4},
	}
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		for _, e := range events {
			m.Record(e)
		}
	})
	if allocs != 0 {
		t.Errorf("Record allocates %v times per batch of %d events, want 0", allocs, len(events))
	}
	// AllocsPerRun makes one warm-up call before its runs.
	const calls = runs + 1
	s := m.Snapshot()
	if s.Counter("cluster.init.scans") != 3*calls || s.Counter("cluster.merges") != 5*calls || len(s.Counters) != 2 {
		t.Errorf("counters = %v, want cluster.init.scans %d and cluster.merges %d", s.Counters, 3*calls, 5*calls)
	}
	if s.Peaks["cluster.live_peak"] != 2 || s.Sched["pool.spans"] != 4*calls {
		t.Errorf("peaks = %v, sched = %v", s.Peaks, s.Sched)
	}
}

func TestMetricsConcurrentRecord(t *testing.T) {
	m := NewMetrics()
	r := NewRun(m)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("p", 2)
				r.Counter("c", 1)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Counter("p") != 2*workers*per || s.Counter("c") != workers*per || s.Events != 2*workers*per {
		t.Errorf("concurrent totals wrong: %v", s.Counters)
	}
}

func TestMetricsVar(t *testing.T) {
	m := NewMetrics()
	NewRun(m).Counter("x", 9)
	var s RunStats
	if err := json.Unmarshal([]byte(m.Var().String()), &s); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
	if s.Counter("x") != 9 {
		t.Errorf("expvar counter = %d, want 9", s.Counter("x"))
	}
}

func TestKindString(t *testing.T) {
	for k := KindPhaseStart; k <= KindSched; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
}

func TestProfileCapture(t *testing.T) {
	dir := t.TempDir()
	opt := ProfileDir(dir)
	p, err := StartProfile(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU under a traced phase so the files have content.
	tr := NewTraceRecorder()
	r := NewRun(Tee(tr, NewMetrics()))
	end := r.Phase("work")
	x := 0
	for i := 0; i < 1<<16; i++ {
		x += i
	}
	_ = x
	end()
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "trace.out"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestProfileErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "nodir", "cpu.pprof")
	if _, err := StartProfile(ProfileOptions{CPUPath: bad}); err == nil {
		t.Error("expected error for unwritable cpu path")
	}
	if _, err := StartProfile(ProfileOptions{TracePath: filepath.Join(dir, "nodir", "t.out")}); err == nil {
		t.Error("expected error for unwritable trace path")
	}
	// Heap failure surfaces at Stop.
	p, err := StartProfile(ProfileOptions{HeapPath: filepath.Join(dir, "nodir", "heap.pprof")})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err == nil || !strings.Contains(err.Error(), "heap") {
		t.Errorf("Stop err = %v, want heap profile error", err)
	}
}

func TestTraceRecorderBalance(t *testing.T) {
	tr := NewTraceRecorder()
	// Unmatched end must not panic.
	tr.Record(Event{Kind: KindPhaseEnd, Phase: "p"})
	tr.Record(Event{Kind: KindPhaseStart, Phase: "p"})
	tr.Record(Event{Kind: KindCounter, Name: "c"}) // ignored
	tr.Record(Event{Kind: KindPhaseEnd, Phase: "p"})
	if len(tr.regions["p"]) != 0 {
		t.Errorf("region stack not drained: %d", len(tr.regions["p"]))
	}
}
