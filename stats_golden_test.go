package kanon

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// statsGolden is one run's worker-invariant statistics: its counter and
// peak totals.
type statsGolden struct {
	Counters map[string]int64 `json:"counters"`
	Peaks    map[string]int64 `json:"peaks,omitempty"`
}

// statsGoldenOptions is the facade matrix TestStatsGolden pins: every
// algorithm of every notion, the partitioned pipeline and a constrained
// (k,k) run.
func statsGoldenOptions() map[string]Options {
	return map[string]Options{
		"k-agglomerative": {K: 5, Notion: NotionK, Algorithm: AlgAgglomerative},
		"k-modified":      {K: 5, Notion: NotionK, Algorithm: AlgModified},
		"k-forest":        {K: 5, Notion: NotionK, Algorithm: AlgForest},
		"k-full-domain":   {K: 5, Notion: NotionK, Algorithm: AlgFullDomain},
		"k-chunk100":      {K: 5, Notion: NotionK, Algorithm: AlgAgglomerative, MaxChunk: 100},
		"kk-expand":       {K: 5, Notion: NotionKK, Algorithm: AlgExpand},
		"kk-nearest":      {K: 5, Notion: NotionKK, Algorithm: AlgNearest},
		"kk-distinct2":    {K: 5, Notion: NotionKK, Constraints: []Constraint{DistinctDiversity(2)}},
		"global":          {K: 5, Notion: NotionGlobal1K},
	}
}

// TestStatsGolden pins every counter and peak of Stats() for fixed
// releases of Adult(400, 7), at one worker and at four, against
// testdata/stats_golden.json. The engines report each counter once per
// run from their own tallies, so a change of name or value here is a
// change of what a run reports. On a mismatch the test logs the run's
// full record, in the golden's format, for an intended re-recording.
func TestStatsGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/stats_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]statsGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	opts := statsGoldenOptions()
	if got, want := sortedKeys(golden), sortedKeys(opts); !slices.Equal(got, want) {
		t.Fatalf("golden runs %v, want %v", got, want)
	}
	tbl := Adult(400, 7)
	for _, name := range sortedKeys(opts) {
		want := golden[name]
		for _, workers := range []int{1, 4} {
			opt := opts[name]
			opt.Workers = workers
			res, err := Anonymize(tbl, opt)
			if err != nil {
				t.Fatalf("%s at workers %d: %v", name, workers, err)
			}
			st := res.Stats()
			got := statsGolden{Counters: st.Counters, Peaks: st.Peaks}
			ok := diffInts(t, name, workers, "counter", got.Counters, want.Counters)
			ok = diffInts(t, name, workers, "peak", got.Peaks, want.Peaks) && ok
			if !ok {
				b, _ := json.Marshal(got)
				t.Logf("%s at workers %d reads %s", name, workers, b)
			}
		}
	}
}

// diffInts reports every name whose value differs between got and want,
// or that only one of them holds, and whether there was none.
func diffInts(t *testing.T, run string, workers int, what string, got, want map[string]int64) bool {
	t.Helper()
	ok := true
	for _, k := range sortedKeys(got) {
		if w, in := want[k]; !in {
			t.Errorf("%s at workers %d: %s %s = %d is not in the golden", run, workers, what, k, got[k])
			ok = false
		} else if got[k] != w {
			t.Errorf("%s at workers %d: %s %s = %d, golden %d", run, workers, what, k, got[k], w)
			ok = false
		}
	}
	for _, k := range sortedKeys(want) {
		if _, in := got[k]; !in {
			t.Errorf("%s at workers %d: %s %s = %d missing", run, workers, what, k, want[k])
			ok = false
		}
	}
	return ok
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
