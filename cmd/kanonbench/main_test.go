package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kanon/internal/core"
	"kanon/internal/experiment"
	"kanon/internal/obs"
)

func tinyRunner() *runner {
	return &runner{
		cfg:    experiment.Config{NART: 80, NADT: 80, NCMC: 80, Seed: 3, Ks: []int{3}},
		blocks: make(map[string]*experiment.Block),
	}
}

func TestRunnerTable1(t *testing.T) {
	r := tinyRunner()
	var sb strings.Builder
	if err := r.run(&sb, "table1", false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"TABLE I", "ART", "ADT", "CMC", "best k-anon", "forest", "(k,k)-anon"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

// TestRunnerTableIOrder pins the block order of Table I and of the
// ablations built on it: ART, ADT, CMC under EM, then under LM.
func TestRunnerTableIOrder(t *testing.T) {
	blocks, err := tinyRunner().allBlocks()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"ART", "ADT", "CMC", "ART", "ADT", "CMC"}
	wantMeasure := []experiment.MeasureKind{experiment.EM, experiment.EM, experiment.EM, experiment.LM, experiment.LM, experiment.LM}
	if len(blocks) != len(wantOrder) {
		t.Fatalf("got %d blocks, want %d", len(blocks), len(wantOrder))
	}
	for i, b := range blocks {
		if b.Dataset != wantOrder[i] || b.Measure != wantMeasure[i] {
			t.Errorf("block %d = %s/%s, want %s/%s", i, b.Dataset, b.Measure, wantOrder[i], wantMeasure[i])
		}
	}
}

func TestRunnerFigures(t *testing.T) {
	r := tinyRunner()
	var sb strings.Builder
	if err := r.run(&sb, "fig2", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Error("fig2 output missing marker")
	}
	sb.Reset()
	if err := r.run(&sb, "fig3", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Error("fig3 output missing marker")
	}
}

func TestRunnerAblations(t *testing.T) {
	r := tinyRunner()
	var sb strings.Builder
	for _, exp := range []string{"distances", "modified", "k1"} {
		sb.Reset()
		if err := r.run(&sb, exp, false); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
}

func TestRunnerGlobal(t *testing.T) {
	r := tinyRunner()
	var sb strings.Builder
	if err := r.run(&sb, "global", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "GLOBAL (1,k) UPGRADE") {
		t.Error("global output missing header")
	}
}

func TestRunnerExtensions(t *testing.T) {
	r := tinyRunner()
	var sb strings.Builder
	for _, exp := range []string{"recoding", "queries", "diversity"} {
		sb.Reset()
		if err := r.run(&sb, exp, false); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if sb.Len() == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
}

func TestRunnerSVG(t *testing.T) {
	r := tinyRunner()
	r.svgDir = t.TempDir()
	var sb strings.Builder
	if err := r.run(&sb, "fig3", false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(r.svgDir, "fig3.svg"))
	if err != nil {
		t.Fatalf("figure SVG not written: %v", err)
	}
	for _, want := range []string{"<svg", "LM measure", "forest alg."} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Unwritable directory surfaces as an error.
	r2 := tinyRunner()
	r2.blocks = r.blocks // reuse computed block
	r2.svgDir = filepath.Join(r.svgDir, "missing", "deeper")
	if err := r2.run(&sb, "fig3", false); err == nil {
		t.Error("expected error for unwritable SVG directory")
	}
}

func TestRunnerJSON(t *testing.T) {
	r := tinyRunner()
	var sb strings.Builder
	if err := r.run(&sb, "fig2", true); err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Experiment string                 `json:"experiment"`
		Config     map[string]interface{} `json:"config"`
		Data       map[string]interface{} `json:"data"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &envelope); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if envelope.Experiment != "fig2" {
		t.Errorf("experiment = %q", envelope.Experiment)
	}
	if envelope.Data["Dataset"] != "ADT" {
		t.Errorf("data.Dataset = %v", envelope.Data["Dataset"])
	}
	if _, hasLog := envelope.Config["Log"]; hasLog {
		t.Error("Log writer leaked into JSON config")
	}
}

func TestRunnerUnknown(t *testing.T) {
	r := tinyRunner()
	var sb strings.Builder
	if err := r.run(&sb, "bogus", false); err == nil {
		t.Error("expected unknown experiment error")
	}
}

func TestRunnerBlockMemoization(t *testing.T) {
	r := tinyRunner()
	b1, err := r.block("ART", experiment.EM)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r.block("ART", experiment.EM)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("block not memoized")
	}
}

// TestRunnerRecodingGolden pins the text of E15 and E16 for tinyRunner's
// config. testdata/recoding_queries.golden was recorded when each
// experiment still built its own releases, so it also shows that sharing
// one pass between them changed no figure.
func TestRunnerRecodingGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/recoding_queries.golden")
	if err != nil {
		t.Fatal(err)
	}
	r := tinyRunner()
	var sb strings.Builder
	for _, exp := range []string{"recoding", "queries"} {
		if err := r.run(&sb, exp, false); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("recoding/queries text differs from the golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRunnerRecodingMemoization serves recoding and then queries from one
// runner: the second reuses the first's releases, so the full-domain
// search runs once per dataset and k, not once per experiment.
func TestRunnerRecodingMemoization(t *testing.T) {
	r := tinyRunner()
	met := obs.NewMetrics()
	r.cfg.Ctx = obs.With(context.Background(), met)
	var sb strings.Builder
	for _, exp := range []string{"recoding", "queries"} {
		if err := r.run(&sb, exp, false); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	want := int64(3 * len(r.cfg.Ks))
	for _, phase := range []string{core.PhaseFullDomain, core.PhaseForest} {
		if got := met.Snapshot().Phase(phase).Starts; got != want {
			t.Errorf("%s ran %d times for 3 datasets × %d k, want %d", phase, got, len(r.cfg.Ks), want)
		}
	}
}

// TestRunnerJSONRowsCarryObs: with -json every Table I row carries its
// observability stats, and the counters and peaks, which do not depend on
// the pool, read the same at 1 and 2 workers.
func TestRunnerJSONRowsCarryObs(t *testing.T) {
	table1 := func(workers int) []experiment.Block {
		r := tinyRunner()
		r.cfg.Workers = workers
		var sb strings.Builder
		if err := r.run(&sb, "table1", true); err != nil {
			t.Fatal(err)
		}
		var envelope struct {
			Data []experiment.Block `json:"data"`
		}
		if err := json.Unmarshal([]byte(sb.String()), &envelope); err != nil {
			t.Fatalf("JSON output does not parse: %v", err)
		}
		return envelope.Data
	}
	seq, two := table1(1), table1(2)
	if len(seq) != 6 || len(two) != 6 {
		t.Fatalf("%d and %d blocks, want 6", len(seq), len(two))
	}
	for b := range seq {
		if len(seq[b].Runs) == 0 || len(seq[b].Runs) != len(two[b].Runs) {
			t.Fatalf("block %d: %d vs %d runs", b, len(seq[b].Runs), len(two[b].Runs))
		}
		for i, r := range seq[b].Runs {
			o := two[b].Runs[i]
			if r.Obs == nil || o.Obs == nil {
				t.Fatalf("run %s carries no Obs", r.Key())
			}
			if len(r.Obs.Counters) == 0 || r.Obs.Records == 0 {
				t.Errorf("run %s: empty stats %+v", r.Key(), r.Obs)
			}
			if !reflect.DeepEqual(r.Obs.Counters, o.Obs.Counters) || !reflect.DeepEqual(r.Obs.Peaks, o.Obs.Peaks) {
				t.Errorf("run %s: counters differ across workers:\n  w=1: %v %v\n  w=2: %v %v",
					r.Key(), r.Obs.Counters, r.Obs.Peaks, o.Obs.Counters, o.Obs.Peaks)
			}
		}
	}
}
