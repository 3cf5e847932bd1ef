// Command benchgate is the CI bench-smoke regression gate (DESIGN.md §17).
//
// It reads a `go test -bench` output file and BENCH_cluster.json, computes
// the ratio of the engine's time at n=2000 to a naive distance evaluation
// (one LCA-walk dist(A, B), BenchmarkDistKernel's reference leg), and
// fails when the ratio exceeds the recorded baseline by more than the
// allowed regression margin (default 20%). Gating on the in-run ratio
// rather than absolute ns/op makes the gate independent of the CI
// machine's clock speed: a slower runner slows both alike, while a
// regression in the engine moves only the numerator. The denominator is
// pure LCA-walk arithmetic that no engine change touches.
//
// The input holds rounds, each an engine reading followed by a reference
// reading taken right after it. The gate pairs the i-th engine reading
// with the i-th reference reading, so both sides of a ratio see the same
// host load, and gates on the median of the rounds' ratios:
//
//	for i in 1 2 3 4 5 6; do
//	  go test ./internal/cluster/ -run '^$' -bench 'BenchmarkAgglomerateWorkers/n=2000/workers=1$' -benchtime 3x
//	  go test ./internal/cluster/ -run '^$' -bench 'BenchmarkDistKernel/reference$' -benchtime 1s
//	done > bench-gate.txt
//	go run ./cmd/benchgate -in bench-gate.txt [-baseline BENCH_cluster.json] [-margin 0.20]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
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
// returns each one's ns/op readings in the order they appear.
func parseBench(path string, names ...string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64, len(names))
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
		if !slices.Contains(names, name) {
			continue
		}
		for i := 1; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				ns, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("benchgate: bad ns/op for %s: %q", name, fields[i])
				}
				out[name] = append(out[name], ns)
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
	engine, ref := got[engineBench], got[refBench]
	if len(engine) == 0 || len(engine) != len(ref) {
		fmt.Fprintf(os.Stderr, "benchgate: %s has %d %s and %d %s readings; want equal, non-zero counts\n",
			*in, len(engine), engineBench, len(ref), refBench)
		os.Exit(2)
	}

	ratios := make([]float64, len(engine))
	for i := range engine {
		ratios[i] = engine[i] / ref[i]
		fmt.Printf("benchgate: round %d: engine %.0f ns / reference dist %.2f ns = %.0f\n", i+1, engine[i], ref[i], ratios[i])
	}
	slices.Sort(ratios)
	ratio := (ratios[(len(ratios)-1)/2] + ratios[len(ratios)/2]) / 2 // the median
	limit := baseRatio * (1 + *margin)
	fmt.Printf("benchgate: median engine ratio %.0f over %d rounds; baseline %.0f, limit %.0f (+%.0f%%)\n",
		ratio, len(ratios), baseRatio, limit, *margin*100)
	if ratio > limit {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — engine n=2000 regressed beyond %.0f%% of the recorded baseline\n", *margin*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}
