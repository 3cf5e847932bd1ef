package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload at n=200 with one timed release, untraced
// and traced, in this process, and checks that the result line carries
// every metric BENCHMARK.json names, with its unit, and no failure.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, sw := range spec.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(w, config{seed: 42, trace: traced, n: 200})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d problems=%q",
					w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(resultLine(rep)), &line); err != nil {
				t.Fatal(err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s not emitted", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			for name := range line.Metrics {
				if !validName.MatchString(name) {
					t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", name)
				}
			}
			if line.Failed != 0 {
				t.Errorf("%s trace=%t: failed_frac = %d/%d", w.name, traced, line.Failed, line.Attempted)
			}
		}
	}
}
