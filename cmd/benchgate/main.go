// Command benchgate is the CI bench-smoke regression gate (DESIGN.md §17).
//
// It reads a `go test -bench` output file and BENCH_cluster.json, computes
// the ratio of the engine's time at n=2000 to the same run's naive
// distance evaluation (one LCA-walk dist(A, B), BenchmarkDistKernel's
// reference leg), and fails when the ratio exceeds the recorded baseline
// by more than the allowed regression margin (default 20%). Gating on the
// in-run ratio rather than absolute ns/op makes the gate independent of
// the CI machine's clock speed: a slower runner slows both alike, while a
// regression in the engine moves only the numerator. The denominator is
// pure LCA-walk arithmetic that no engine change touches.
//
// Usage:
//
//	go run ./cmd/benchgate -in bench-kernel.txt [-baseline BENCH_cluster.json] [-margin 0.20]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

const (
	engineBench = "BenchmarkAgglomerateWorkers/n=2000/workers=1"
	refBench    = "BenchmarkDistKernel/reference"
)

// baselineFile is the slice of BENCH_cluster.json the gate reads.
type baselineFile struct {
	CIGate struct {
		// RatioN2000VsDistReference is the recorded baseline ratio
		// engine(n=2000, workers=1) / reference dist(A, B) from the
		// environment BENCH_cluster.json was measured in.
		RatioN2000VsDistReference float64 `json:"ratio_n2000_vs_dist_reference"`
	} `json:"ci_gate"`
}

// parseBench scans go-test benchmark output for the named benchmarks and
// returns their ns/op. Multiple runs of the same benchmark (e.g. -count>1)
// keep the minimum, the conventional noise-resistant reading.
func parseBench(path string, names ...string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "BenchmarkX-8   3   290856165 ns/op ..." or unsuffixed on
		// GOMAXPROCS=1 runners.
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		match := false
		for _, want := range names {
			if name == want {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		for i := 1; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				ns, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("benchgate: bad ns/op for %s: %q", name, fields[i])
				}
				if prev, ok := out[name]; !ok || ns < prev {
					out[name] = ns
				}
				break
			}
		}
	}
	return out, sc.Err()
}

func main() {
	in := flag.String("in", "", "benchmark output file (go test -bench output)")
	baseline := flag.String("baseline", "BENCH_cluster.json", "baseline file with the recorded ci_gate ratio")
	margin := flag.Float64("margin", 0.20, "allowed relative regression of the engine ratio")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -in is required")
		os.Exit(2)
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	baseRatio := base.CIGate.RatioN2000VsDistReference
	if baseRatio <= 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s has no ci_gate.ratio_n2000_vs_dist_reference\n", *baseline)
		os.Exit(2)
	}

	got, err := parseBench(*in, engineBench, refBench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	engine, ok1 := got[engineBench]
	ref, ok2 := got[refBench]
	if !ok1 || !ok2 {
		fmt.Fprintf(os.Stderr, "benchgate: %s missing %s or %s\n", *in, engineBench, refBench)
		os.Exit(2)
	}

	ratio := engine / ref
	limit := baseRatio * (1 + *margin)
	fmt.Printf("benchgate: engine ratio %.0f (engine %.0f ns / reference dist %.2f ns); baseline %.0f, limit %.0f (+%.0f%%)\n",
		ratio, engine, ref, baseRatio, limit, *margin*100)
	if ratio > limit {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — engine n=2000 regressed beyond %.0f%% of the recorded baseline\n", *margin*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}
