package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"kanon/internal/obs"
)

// attackConfig is sized so the quadratic attack evaluation stays fast.
func attackConfig() Config {
	return Config{
		NART: 60, NADT: 60, NCMC: 60, Seed: 7, Ks: []int{3},
		Deterministic: true,
	}
}

// TestRunAttackLadder runs E20 on ART and checks the paper's privacy
// ladder: the global (1,k) release defeats the matching and refinement
// attacks entirely, and every row carries a complete report.
func TestRunAttackLadder(t *testing.T) {
	cfg := attackConfig()
	results, err := cfg.RunAttack("ART")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4*len(cfg.Ks) {
		t.Fatalf("got %d rows, want %d", len(results), 4*len(cfg.Ks))
	}
	var global, kanon *AttackResult
	for i := range results {
		r := &results[i]
		if r.Report == nil {
			t.Fatalf("row %s k=%d has no report", r.Algorithm, r.K)
		}
		if r.Report.Records != cfg.NART {
			t.Errorf("%s: report over %d records, want %d", r.Algorithm, r.Report.Records, cfg.NART)
		}
		switch r.Algorithm {
		case "global":
			global = r
		case "k-anon":
			kanon = r
		}
	}
	if global == nil || kanon == nil {
		t.Fatal("missing pipelines in E20 output")
	}
	if global.Report.Matching.Vulnerable != 0 {
		t.Errorf("matching attack breached the global release: %+v", global.Report.Matching)
	}
	if global.Report.Refinement.Vulnerable != 0 {
		t.Errorf("refinement attack breached the global release: %+v", global.Report.Refinement)
	}
	if global.Report.Score > kanon.Report.Score {
		t.Errorf("global release scored %v, worse than k-anon %v", global.Report.Score, kanon.Report.Score)
	}
	text := FormatAttack(results)
	for _, want := range []string{"E20", "matching", "refinement", "intersection", "union", "global"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatAttack output missing %q", want)
		}
	}
}

// TestRunBlockAttackWorkerInvariance is the satellite determinism
// guarantee: with Attack on, the serialized runs of a block —
// including every risk report and every attack.* counter — are
// byte-identical at 1 and 4 workers.
func TestRunBlockAttackWorkerInvariance(t *testing.T) {
	cfg := attackConfig()
	cfg.NART = 40
	cfg.Attack = true

	cfg.Workers = 1
	seq, err := cfg.RunBlock("ART", EM)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := cfg.RunBlock("ART", EM)
	if err != nil {
		t.Fatal(err)
	}
	// RunStats.Workers records the configured pool size — the only field
	// that legitimately differs between the two suites. Blank them so the byte comparison covers everything else
	// (counters, risk reports, losses) at full strength.
	blankWorkers := func(runs []Run) []Run {
		out := make([]Run, len(runs))
		for i, r := range runs {
			if r.Obs != nil {
				st := *r.Obs
				st.Workers = 0
				r.Obs = &st
			}
			out[i] = r
		}
		return out
	}
	seqJSON := marshalRuns(t, blankWorkers(seq.Runs))
	parJSON := marshalRuns(t, blankWorkers(par.Runs))
	if len(seqJSON) != len(parJSON) {
		t.Fatalf("%d vs %d runs", len(seqJSON), len(parJSON))
	}
	for i := range seqJSON {
		if seqJSON[i] != parJSON[i] {
			t.Errorf("run %d differs across worker counts:\n  w=1: %s\n  w=4: %s",
				i, seqJSON[i], parJSON[i])
		}
	}
	for _, r := range seq.Runs {
		if r.Error != "" {
			t.Fatalf("run %s failed: %s", r.Key(), r.Error)
		}
		if r.Risk == nil {
			t.Fatalf("run %s has no risk report with Config.Attack on", r.Key())
		}
		if r.Obs == nil {
			t.Fatalf("run %s has no obs stats", r.Key())
		}
		// The attack counters in the observability stream must equal the
		// report they were derived from.
		checks := map[string]int{
			obs.CounterAttackPopulation:       r.Risk.Records,
			obs.CounterAttackVulnMatching:     r.Risk.Matching.Vulnerable,
			obs.CounterAttackVulnRefinement:   r.Risk.Refinement.Vulnerable,
			obs.CounterAttackVulnIntersection: r.Risk.Intersection.Vulnerable,
			obs.CounterAttackVulnUnion:        r.Risk.VulnerableUnion,
		}
		for name, want := range checks {
			if got := r.Obs.Counter(name); got != int64(want) {
				t.Errorf("run %s counter %s = %d, want %d", r.Key(), name, got, want)
			}
		}
	}
}

// TestRunAttackCheckpointCarriesRisk: a checkpointed run's risk report
// survives the JSON round trip, so resumed suites keep their attack data.
func TestRunAttackCheckpointCarriesRisk(t *testing.T) {
	cfg := attackConfig()
	cfg.NART = 40
	cfg.Attack = true
	full, err := cfg.RunBlock("ART", EM)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(full.Runs[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Run
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Risk == nil || back.Risk.Records != full.Runs[0].Risk.Records {
		t.Errorf("risk report lost in round trip: %+v", back.Risk)
	}
}
