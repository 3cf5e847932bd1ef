package kanon

import (
	"math"
	"testing"
)

// TestGoldenLosses pins the exact information loss of each pipeline on
// fixed seeds. Every algorithm in kanon is deterministic, so any drift
// here means an algorithmic change — intentional changes must update the
// constants, unintentional ones are regressions the property tests might
// miss (e.g. a tie-break change that keeps outputs valid but different).
func TestGoldenLosses(t *testing.T) {
	const tol = 1e-9
	cases := []struct {
		name string
		opt  Options
		want float64
	}{
		{"ART-k", Options{K: 5, Notion: NotionK}, 1.301150036218732},
		{"ART-k-d1", Options{K: 5, Notion: NotionK, Distance: "d1"}, 1.358423583898939},
		{"ART-k-modified", Options{K: 5, Notion: NotionK, Algorithm: AlgModified}, 1.29737322056905},
		{"ART-forest", Options{K: 5, Notion: NotionK, Algorithm: AlgForest}, 1.654079643961463},
		{"ART-kk", Options{K: 5, Notion: NotionKK}, 1.128033542597594},
		{"ART-global", Options{K: 5, Notion: NotionGlobal1K}, 1.148957646009122},
		{"ART-k-lm", Options{K: 5, Notion: NotionK, Measure: MeasureLM}, 0.3390092592592592},
	}
	tbl := ART(250, 12345)
	for _, c := range cases {
		res, err := Anonymize(tbl, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := res.Loss()
		if c.want == 0 {
			// Bootstrap mode: print the value to fill in.
			t.Logf("%s: %v", c.name, got)
			continue
		}
		if math.Abs(got-c.want) > tol {
			t.Errorf("%s: loss = %.16g, want %.16g (algorithmic drift?)", c.name, got, c.want)
		}
	}
}

// TestGoldenGroupStructure pins structural facts of a fixed run.
func TestGoldenGroupStructure(t *testing.T) {
	tbl := Adult(300, 99)
	res, err := Anonymize(tbl, Options{K: 6, Notion: NotionK})
	if err != nil {
		t.Fatal(err)
	}
	sizes := res.GroupSizes()
	if len(sizes) != 49 {
		t.Errorf("group count = %d, want 49", len(sizes))
	}
	if sizes[0] < 6 {
		t.Errorf("min group %d below k", sizes[0])
	}
	if dm := res.Discernibility(); dm != 1854 {
		t.Errorf("DM = %d, want 1854", dm)
	}
}
