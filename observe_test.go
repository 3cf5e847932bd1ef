package kanon

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// captureObserver records every event it sees; safe for concurrent use as
// the Observer contract requires.
type captureObserver struct {
	mu     sync.Mutex
	events []RunEvent
}

func (c *captureObserver) Record(e RunEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *captureObserver) snapshot() []RunEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RunEvent, len(c.events))
	copy(out, c.events)
	return out
}

// stripT zeroes the monotonic offsets so sequences can be compared
// structurally.
func stripT(events []RunEvent) []RunEvent {
	out := make([]RunEvent, len(events))
	for i, e := range events {
		e.T = 0
		out[i] = e
	}
	return out
}

// observedOptions is the notion matrix the observer tests sweep: every
// pipeline the facade can dispatch to.
func observedOptions() map[string]Options {
	return map[string]Options{
		"k-agglomerative": {K: 5, Notion: NotionK},
		"k-partitioned":   {K: 5, Notion: NotionK, MaxChunk: 60},
		"kk":              {K: 5, Notion: NotionKK},
		"global":          {K: 5, Notion: NotionGlobal1K},
	}
}

// TestObserverEventSnapshotDeterministic runs every notion twice at
// Workers:1 and once at Workers:4 and requires the same ordered (Kind,
// Phase, Name, N) sequence from all three, the values of the Sched gauges
// excepted: pipelines emit only on their driving goroutine, phases and
// each counter once, so the event stream is a deterministic function of
// the input at any worker count.
func TestObserverEventSnapshotDeterministic(t *testing.T) {
	for name, opt := range observedOptions() {
		t.Run(name, func(t *testing.T) {
			tbl := Adult(150, 7)
			var seqs [][]RunEvent
			for _, workers := range []int{1, 1, 4} {
				rec := &captureObserver{}
				opt.Observer = rec
				opt.Workers = workers
				if _, err := Anonymize(tbl, opt); err != nil {
					t.Fatal(err)
				}
				seq := stripT(rec.snapshot())
				for i, e := range seq {
					if e.Kind == EventSched {
						seq[i].N = 0
					}
				}
				seqs = append(seqs, seq)
			}
			if len(seqs[0]) == 0 {
				t.Fatal("no events emitted")
			}
			for r, seq := range seqs[1:] {
				label := []string{"a second run at Workers:1", "Workers:4"}[r]
				if len(seq) != len(seqs[0]) {
					t.Fatalf("event counts differ: %d at Workers:1, %d in %s", len(seqs[0]), len(seq), label)
				}
				for i := range seqs[0] {
					if seqs[0][i] != seq[i] {
						t.Fatalf("event %d differs between Workers:1 and %s:\n  %+v\n  %+v", i, label, seqs[0][i], seq[i])
					}
				}
			}
			// Phase brackets must balance: every start has a matching end.
			open := make(map[string]int)
			for _, e := range seqs[0] {
				switch e.Kind {
				case EventPhaseStart:
					open[e.Phase]++
				case EventPhaseEnd:
					open[e.Phase]--
					if open[e.Phase] < 0 {
						t.Fatalf("phase %q ended before it started", e.Phase)
					}
				}
			}
			for phase, n := range open {
				if n != 0 {
					t.Errorf("phase %q left %d brackets open", phase, n)
				}
			}
		})
	}
}

// TestStatsWorkerInvariance is the acceptance check of the unified stats
// surface: counter totals and peaks are identical at Workers:1 and
// Workers:8 for the same input, for every notion. Only wall times and the
// Sched gauges may differ.
func TestStatsWorkerInvariance(t *testing.T) {
	for name, opt := range observedOptions() {
		t.Run(name, func(t *testing.T) {
			tbl := Adult(150, 7)
			var stats []RunStats
			for _, workers := range []int{1, 8} {
				o := opt
				o.Workers = workers
				res, err := Anonymize(tbl, o)
				if err != nil {
					t.Fatal(err)
				}
				stats = append(stats, res.Stats())
			}
			s1, s8 := stats[0], stats[1]
			if len(s1.Counters) == 0 {
				t.Fatal("no counters recorded")
			}
			for k, v := range s1.Counters {
				if s8.Counters[k] != v {
					t.Errorf("counter %s: %d at Workers:1, %d at Workers:8", k, v, s8.Counters[k])
				}
			}
			for k := range s8.Counters {
				if _, ok := s1.Counters[k]; !ok {
					t.Errorf("counter %s only present at Workers:8", k)
				}
			}
			for k, v := range s1.Peaks {
				if s8.Peaks[k] != v {
					t.Errorf("peak %s: %d at Workers:1, %d at Workers:8", k, v, s8.Peaks[k])
				}
			}
			if s1.Workers != 1 || s8.Workers != 8 {
				t.Errorf("Workers fields = %d, %d; want 1, 8", s1.Workers, s8.Workers)
			}
			if s1.Records != tbl.Len() || s1.Notion != string(opt.Notion) {
				t.Errorf("run identity = %q/%d, want %q/%d", s1.Notion, s1.Records, opt.Notion, tbl.Len())
			}
		})
	}
}

// TestStatsEventsIndependentOfRecords requires the same Stats().Events
// at n=300 and n=600 for each notion of the unsharded pipelines: a run
// emits its phases and each counter once, never an event per record,
// merge or scan.
func TestStatsEventsIndependentOfRecords(t *testing.T) {
	for name, opt := range observedOptions() {
		if opt.MaxChunk > 0 {
			continue // a partitioned run reports once per shard
		}
		t.Run(name, func(t *testing.T) {
			var events []int64
			for _, n := range []int{300, 600} {
				res, err := Anonymize(Adult(n, 7), opt)
				if err != nil {
					t.Fatal(err)
				}
				events = append(events, res.Stats().Events)
			}
			if events[0] != events[1] {
				t.Errorf("Stats().Events = %d at n=300, %d at n=600; want equal", events[0], events[1])
			}
		})
	}
}

// TestStatsPopulated checks that every facade run carries stats — phases
// with wall time, a positive event count — without any Observer set.
func TestStatsPopulated(t *testing.T) {
	tbl := loadFacadeTable(t)
	res, err := Anonymize(tbl, Options{K: 3, Notion: NotionKK})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Events == 0 {
		t.Fatal("Stats().Events = 0; the facade should always aggregate")
	}
	if len(st.Phases) == 0 {
		t.Fatal("no phases recorded")
	}
	if st.Phase("core.k1").Starts == 0 {
		t.Error("core.k1 phase missing from a (k,k) run")
	}
	if st.WallNanos <= 0 {
		t.Error("WallNanos not positive")
	}
	if !strings.Contains(st.JSON(), `"counters"`) {
		t.Errorf("JSON rendering lacks counters: %s", st.JSON())
	}
}

// TestGlobalCountersSurvivedDeprecation pins the completed deprecation:
// Result.UpgradeStats is gone (kanonlint's deprecated-API analyzer forbids
// reintroducing it), and the core.global.* counters of Stats() — its
// documented replacement — still carry the Algorithm 6 work summary for a
// global run.
func TestGlobalCountersSurvivedDeprecation(t *testing.T) {
	tbl := Adult(120, 3)
	res, err := Anonymize(tbl, Options{K: 6, Notion: NotionGlobal1K})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats()
	if st.Phase("core.global").Starts == 0 {
		t.Error("core.global phase missing from a global run")
	}
	if st.Counter("core.global.steps") < 0 || st.Counter("core.global.deficient") < 0 {
		t.Errorf("core.global counters negative: steps=%d deficient=%d",
			st.Counter("core.global.steps"), st.Counter("core.global.deficient"))
	}
}

// TestValidateOptions exercises the typed validation surface directly.
func TestValidateOptions(t *testing.T) {
	valid := []Options{
		{K: 1},
		{K: 2, Notion: NotionK, Measure: MeasureLM, Distance: "d1"},
		{K: 3, Notion: NotionK, MaxChunk: 100, Workers: 4},
		{K: 3, Notion: NotionK, Algorithm: AlgForest},
		{K: 3, Notion: NotionKK, Constraints: []Constraint{DistinctDiversity(2)}},
		{K: 3, Notion: NotionK, MaxChunk: 100, OnShard: func(ShardCheckpoint) {}},
		{K: 3, Notion: NotionK, MaxChunk: 100, CompletedShards: []ShardCheckpoint{{Shard: 0}}},
	}
	for _, opt := range valid {
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opt, err)
		}
	}
	invalid := []struct {
		opt   Options
		field string
	}{
		{Options{K: 0}, "K"},
		{Options{K: -3}, "K"},
		{Options{K: 2, Notion: "bogus"}, "Notion"},
		{Options{K: 2, Algorithm: "bogus"}, "Algorithm"},
		{Options{K: 2, Measure: "bogus"}, "Measure"},
		{Options{K: 2, Distance: "bogus"}, "Distance"},
		{Options{K: 2, Notion: NotionKK, Measure: MeasureLM, Distance: "d1"}, "Distance"},
		{Options{K: 2, Notion: NotionK, Algorithm: AlgForest, Distance: "d3"}, "Distance"},
		{Options{K: 2, OnShard: func(ShardCheckpoint) {}}, "OnShard"},
		{Options{K: 2, CompletedShards: []ShardCheckpoint{{Shard: 0}}}, "CompletedShards"},
		{Options{K: 2, Notion: NotionKK, MaxChunk: 30, OnShard: func(ShardCheckpoint) {}}, "MaxChunk"},
		{Options{K: 2, Notion: NotionGlobal1K, MaxChunk: 30}, "MaxChunk"},
		{Options{K: 2, Notion: NotionK, Algorithm: AlgForest, MaxChunk: 30}, "MaxChunk"},
		{Options{K: 2, Notion: NotionK, Algorithm: AlgFullDomain, MaxChunk: 30}, "MaxChunk"},
		{Options{K: 2, MaxChunk: 30}, "MaxChunk"}, // the default notion is kk
	}
	for _, tc := range invalid {
		err := tc.opt.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want *OptionsError", tc.opt)
			continue
		}
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Errorf("Validate(%+v) returned %T, want *OptionsError", tc.opt, err)
			continue
		}
		if oe.Field != tc.field {
			t.Errorf("Validate(%+v).Field = %q, want %q", tc.opt, oe.Field, tc.field)
		}
		if !strings.Contains(oe.Error(), "Options."+tc.field) {
			t.Errorf("error text %q does not name the field", oe.Error())
		}
	}

	// The notion → algorithm table, and what each algorithm accepts:
	// Distance and MaxChunk only the agglomerative ones; Constraints the
	// agglomerative ones without MaxChunk, and both algorithms of (k,k).
	// Everything else must come back as an *OptionsError naming the field.
	extras := []struct {
		field string
		set   func(*Options)
	}{
		{"", func(*Options) {}},
		{"Distance", func(o *Options) { o.Distance = "d1" }},
		{"MaxChunk", func(o *Options) { o.MaxChunk = 100 }},
		{"Constraints", func(o *Options) { o.Constraints = []Constraint{DistinctDiversity(2)} }},
	}
	for _, notion := range []Notion{"", NotionK, NotionKK, NotionGlobal1K} {
		for _, alg := range []Algorithm{"", AlgAgglomerative, AlgModified, AlgForest, AlgFullDomain, AlgExpand, AlgNearest} {
			var ofNotion, agglomerative bool
			if notion == NotionK {
				ofNotion = alg != AlgExpand && alg != AlgNearest
				agglomerative = alg == "" || alg == AlgAgglomerative || alg == AlgModified
			} else {
				ofNotion = alg == "" || alg == AlgExpand || alg == AlgNearest
			}
			kk := notion == "" || notion == NotionKK
			for _, x := range extras {
				opt := Options{K: 2, Notion: notion, Algorithm: alg}
				x.set(&opt)
				want := ""
				switch {
				case !ofNotion:
					want = "Algorithm"
				case (x.field == "Distance" || x.field == "MaxChunk") && !agglomerative:
					want = x.field
				case x.field == "Constraints" && !agglomerative && !kk:
					want = x.field
				}
				err := opt.Validate()
				var oe *OptionsError
				switch {
				case want == "" && err != nil:
					t.Errorf("notion %q alg %q %s: Validate = %v, want nil", notion, alg, x.field, err)
				case want != "" && (!errors.As(err, &oe) || oe.Field != want):
					t.Errorf("notion %q alg %q %s: Validate = %v, want *OptionsError on %s", notion, alg, x.field, err, want)
				}
			}
		}
	}

	// Anonymize surfaces the same typed error.
	tbl := loadFacadeTable(t)
	_, err := Anonymize(tbl, Options{K: 0})
	var oe *OptionsError
	if !errors.As(err, &oe) || oe.Field != "K" {
		t.Errorf("Anonymize(K:0) error = %v, want *OptionsError on K", err)
	}
}

// TestAnonymizeNilContext pins the documented nil-ctx contract: a nil
// context behaves exactly like context.Background().
func TestAnonymizeNilContext(t *testing.T) {
	tbl := loadFacadeTable(t)
	res, err := AnonymizeContext(nil, tbl, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().Events == 0 {
		t.Error("nil-ctx run carried no stats")
	}
}
