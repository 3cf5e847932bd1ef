package experiment

import (
	"strings"
	"testing"
)

func TestRunRecoding(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ks = []int{3}
	results, _, err := cfg.RunRecoding("ART", 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if r.FullDomain <= 0 || r.LocalKAnon <= 0 || r.LocalKK <= 0 {
		t.Errorf("non-positive losses: %+v", r)
	}
	// (k,k) must not lose to the full-domain optimum restricted search
	// space by much; in practice it wins.
	if r.LocalKK > r.FullDomain+1e-9 {
		t.Errorf("local (k,k) %.4f worse than full-domain %.4f", r.LocalKK, r.FullDomain)
	}
	out := FormatRecoding(results)
	if !strings.Contains(out, "LOCAL vs GLOBAL") || !strings.Contains(out, "levels") {
		t.Errorf("recoding format: %q", out)
	}
}

func TestRunQueries(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ks = []int{3}
	_, results, err := cfg.RunRecoding("CMC", 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 { // four pipelines × one k
		t.Fatalf("got %d results", len(results))
	}
	byAlg := make(map[string]QueryResult)
	for _, r := range results {
		byAlg[r.Algorithm] = r
		if r.Accuracy.Queries != 50 {
			t.Errorf("%s: %d queries", r.Algorithm, r.Accuracy.Queries)
		}
		if r.Accuracy.MeanRelError < 0 {
			t.Errorf("%s: negative error", r.Algorithm)
		}
	}
	// The (k,k) release must answer at least as accurately as the heavily
	// generalized full-domain release on aggregate.
	if byAlg["kk"].Accuracy.MeanRelError > byAlg["full-domain"].Accuracy.MeanRelError*1.2+1e-9 {
		t.Errorf("(k,k) error %.4f worse than full-domain %.4f",
			byAlg["kk"].Accuracy.MeanRelError, byAlg["full-domain"].Accuracy.MeanRelError)
	}
	out := FormatQueries(results)
	if !strings.Contains(out, "WORKLOAD ACCURACY") {
		t.Errorf("queries format: %q", out)
	}
}

func TestRunDiversityExperiment(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ks = []int{3}
	results, err := cfg.RunDiversity("ART", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if r.DiverseKAnonLoss < r.PlainKAnonLoss-1e-9 {
		t.Errorf("diversity-constrained k-anon cheaper than plain: %+v", r)
	}
	if r.PlainMinDiversity < 1 {
		t.Errorf("plain min diversity %d", r.PlainMinDiversity)
	}
	out := FormatDiversity(results)
	if !strings.Contains(out, "DIVERSITY EXTENSION") {
		t.Errorf("diversity format: %q", out)
	}
}

func TestRunScale(t *testing.T) {
	cfg := tinyConfig()
	results, err := cfg.RunScale([]int{120, 240}, 4, 60, 120)
	if err != nil {
		t.Fatal(err)
	}
	// n=120 gets both algorithms, n=240 only the partitioned one.
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for _, r := range results {
		if r.Loss <= 0 || r.Millis < 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	out := FormatScale(results)
	if !strings.Contains(out, "SCALABILITY") || !strings.Contains(out, "partitioned") {
		t.Errorf("scale format: %q", out)
	}
}

func TestRunExtensionsUnknownDataset(t *testing.T) {
	cfg := tinyConfig()
	if _, _, err := cfg.RunRecoding("NOPE", 10); err == nil {
		t.Error("expected unknown dataset error")
	}
	if _, err := cfg.RunDiversity("NOPE", 2); err == nil {
		t.Error("expected unknown dataset error")
	}
}
