package experiment

import (
	"strings"
	"testing"
)

// tinyConfig keeps harness tests fast: ~150-record datasets, two k values,
// verification on.
func tinyConfig() Config {
	return Config{NART: 150, NADT: 150, NCMC: 150, Seed: 7, Ks: []int{3, 5}, Verify: true}
}

func TestRunBlockVerifiedART(t *testing.T) {
	cfg := tinyConfig()
	blk, err := cfg.RunBlock("ART", EM)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Dataset != "ART" || blk.Measure != EM {
		t.Error("block identity wrong")
	}
	if len(blk.KAnonVariants) != 8 {
		t.Errorf("got %d k-anon variants, want 8", len(blk.KAnonVariants))
	}
	if len(blk.KKVariants) != 2 {
		t.Errorf("got %d (k,k) variants, want 2", len(blk.KKVariants))
	}
	for _, s := range blk.KAnonVariants {
		for _, k := range cfg.Ks {
			if s.Losses[k] <= 0 {
				t.Errorf("%s at k=%d: loss %v, want > 0", s.Algorithm, k, s.Losses[k])
			}
		}
	}
}

func TestBlockShapeMatchesPaper(t *testing.T) {
	cfg := tinyConfig()
	for _, m := range []MeasureKind{EM, LM} {
		blk, err := cfg.RunBlock("CMC", m)
		if err != nil {
			t.Fatal(err)
		}
		ks := blk.SortedKs()
		for _, k := range ks {
			// The headline result: (k,k) beats the best k-anonymization,
			// which beats (or at small n at least matches within noise) the
			// forest baseline.
			if blk.BestKK.Losses[k] > blk.BestKAnon.Losses[k]+1e-9 {
				t.Errorf("%s k=%d: (k,k) loss %v exceeds best k-anon %v",
					m, k, blk.BestKK.Losses[k], blk.BestKAnon.Losses[k])
			}
		}
		// Loss must increase with k for each of the three Table I rows.
		for _, s := range []Series{blk.BestKAnon, blk.Forest, blk.BestKK} {
			for i := 1; i < len(ks); i++ {
				if s.Losses[ks[i]] < s.Losses[ks[i-1]]-1e-9 {
					t.Errorf("%s/%s: loss decreased from k=%d to k=%d",
						m, s.Algorithm, ks[i-1], ks[i])
				}
			}
		}
	}
}

func TestRunBlockUnknowns(t *testing.T) {
	cfg := tinyConfig()
	if _, err := cfg.RunBlock("NOPE", EM); err == nil {
		t.Error("expected unknown dataset error")
	}
	if _, err := cfg.RunBlock("ART", MeasureKind("XX")); err == nil {
		t.Error("expected unknown measure error")
	}
}

// TestRunFigure checks Figure 3's data, the ADT block under LM, and its
// CSV rendering.
func TestRunFigure(t *testing.T) {
	cfg := tinyConfig()
	blk, err := cfg.RunBlock("ADT", LM)
	if err != nil {
		t.Fatal(err)
	}
	if blk.Dataset != "ADT" || blk.Measure != LM {
		t.Error("figure block should be ADT under the requested measure")
	}
	csv := FormatFigureCSV(blk)
	if !strings.Contains(csv, "k,k-anon,forest,kk-anon") {
		t.Errorf("figure CSV missing header: %q", csv)
	}
	if strings.Count(csv, "\n") < 3 {
		t.Errorf("figure CSV too short: %q", csv)
	}
}

func TestRunGlobal(t *testing.T) {
	cfg := tinyConfig()
	results, err := cfg.RunGlobal("ART", EM, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cfg.Ks) {
		t.Fatalf("got %d results, want %d", len(results), len(cfg.Ks))
	}
	for _, r := range results {
		if r.GlobalLoss < r.KKLoss-1e-12 {
			t.Errorf("k=%d: global loss %v below (k,k) loss %v", r.K, r.GlobalLoss, r.KKLoss)
		}
		if r.Stats.GeneralizationSteps < 0 {
			t.Errorf("k=%d: negative steps", r.K)
		}
		if _, ok := r.EpsGlobal[0.5]; !ok {
			t.Errorf("k=%d: ε=0.5 probe missing", r.K)
		}
	}
	out := FormatGlobal(results)
	if !strings.Contains(out, "GLOBAL (1,k) UPGRADE") {
		t.Error("FormatGlobal missing header")
	}
}

func TestFormatters(t *testing.T) {
	cfg := tinyConfig()
	blk, err := cfg.RunBlock("ART", LM)
	if err != nil {
		t.Fatal(err)
	}
	blocks := []*Block{blk}

	tbl := FormatTableI(blocks)
	for _, want := range []string{"TABLE I", "best k-anon", "forest", "(k,k)-anon"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
	if FormatTableI(nil) == "" {
		t.Error("empty Table I should still render a header")
	}

	da := FormatDistanceAblation(blk)
	for _, want := range []string{"agglo-basic-d1", "agglo-basic-d4", "sum"} {
		if !strings.Contains(da, want) {
			t.Errorf("distance ablation missing %q", want)
		}
	}

	ma := FormatModifiedAblation(blk)
	if !strings.Contains(ma, "improvement") || !strings.Contains(ma, "d3") {
		t.Errorf("modified ablation malformed: %q", ma)
	}

	ka := FormatK1Ablation(blk)
	if !strings.Contains(ka, "kk-nearest") || !strings.Contains(ka, "kk-expand") {
		t.Errorf("k1 ablation malformed: %q", ka)
	}

	pe := FormatPerEntrySummary(blocks)
	if !strings.Contains(pe, "PER-ENTRY") {
		t.Errorf("per-entry summary malformed: %q", pe)
	}
}

func TestSeriesSumLoss(t *testing.T) {
	s := Series{Algorithm: "x", Losses: map[int]float64{3: 1.5, 5: 2.5}}
	if got := s.SumLoss([]int{3, 5}); got != 4.0 {
		t.Errorf("SumLoss = %v, want 4", got)
	}
}

func TestBestBySum(t *testing.T) {
	a := Series{Algorithm: "a", Losses: map[int]float64{3: 2}}
	b := Series{Algorithm: "b", Losses: map[int]float64{3: 1}}
	if got := bestBySum([]Series{a, b}, []int{3}); got.Algorithm != "b" {
		t.Errorf("bestBySum picked %s", got.Algorithm)
	}
}

func TestDefaultAndFullConfig(t *testing.T) {
	d := DefaultConfig()
	if d.NADT != 2000 || len(d.Ks) != 4 {
		t.Errorf("DefaultConfig = %+v", d)
	}
	f := FullConfig()
	if f.NADT != 5000 || f.NCMC != 1500 {
		t.Errorf("FullConfig = %+v", f)
	}
}

func TestLogOutput(t *testing.T) {
	var sb strings.Builder
	cfg := tinyConfig()
	cfg.NART = 60
	cfg.Ks = []int{3}
	cfg.Log = &sb
	if _, err := cfg.RunBlock("ART", LM); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "done") {
		t.Error("no progress lines logged")
	}
}
