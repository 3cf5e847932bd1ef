// Command kanonperf is the repository benchmark. It times whole releases,
// CSV bytes in and released CSV bytes out, of every anonymity notion the
// paper defines, through the public kanon facade. A traced run (-trace 1)
// makes the same release by calling each layer's public function directly
// and reports where the time and work went.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh -workload kk-adt2500 -seed 42 -seconds 12 -trace 0
//
// Without -workload it runs every workload in turn, each in a child
// process. The last line of a workload's standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the line before it
// is the full report with medians, quartiles and sample counts. See
// bench/README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kanon"
)

// A run generates its inputs at least minSetupRuns times and goes on until
// setupBudget is spent, so that set-ups of a few milliseconds still give a
// steady median; setup_s is that median. The audit is repeated the same way.
const (
	minSetupRuns = 3
	maxSetupRuns = 1000
	setupBudget  = 500 * time.Millisecond
	minAuditRuns = 2
	auditBudget  = time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as a user of kanon sees them.
var endToEnd = []metricDef{
	{"release_s", "s"},
	{"records_per_s", "rec/s"},
	{"release_cpu_s", "s"},
	{"audit_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"loss", "bits"},
}

// layerCounters are engine counters (internal/obs names) reported as they
// are by the traced run.
var layerCounters = []string{
	"cluster.dist_evals",
	"cluster.heap.pushes",
	"cluster.heap.stale_pops",
	"cluster.heap.dead_nn_rescans",
	"cluster.heap.tiles_scanned",
	"cluster.kernel.table_hits",
	"cluster.kernel.fallback_walks",
	"core.k1.scan_evals",
	"core.make1k.deficient",
	"core.make1k.augments",
	"core.global.deficient",
	"core.global.steps",
	"core.global.matchings",
	"resilient.retries",
	"resilient.degraded_shards",
}

// perLayer are the metrics of a traced run. A time in seconds is reported
// only for layers every workload passes through; the engine layers, which
// differ by notion, report their share of the release instead, so an idle
// layer reads 0 rather than a time.
var perLayer = append([]metricDef{
	{"dataio.read_s", "s"},
	{"dataio.read_mb_per_s", "MB/s"},
	{"dataio.hier_s", "s"},
	{"loss.measure_s", "s"},
	{"cluster.space_s", "s"},
	{"dataio.write_s", "s"},
	{"loss.table_loss_s", "s"},
	{"cluster.engine_share", "ratio"},
	{"cluster.init_share", "ratio"},
	{"cluster.merge_share", "ratio"},
	{"core.k1_share", "ratio"},
	{"core.make1k_share", "ratio"},
	{"core.global_share", "ratio"},
	{"core.partition_share", "ratio"},
	{"dist.ns_per_eval", "ns"},
	{"cluster.heap.useful_pop_ratio", "ratio"},
	{"cluster.live_peak", "count"},
	{"core.global.matchings_per_step", "ratio"},
	{"anonymity.check_s", "s"},
	{"risk.attacks_share", "ratio"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"trace.coverage_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}, counterDefs()...)

func counterDefs() []metricDef {
	defs := make([]metricDef, len(layerCounters))
	for i, name := range layerCounters {
		defs[i] = metricDef{name, "count"}
	}
	return defs
}

// minCoverage is the share of a traced release its top-level layer spans
// must account for.
const minCoverage = 0.95

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// n overrides the workload's record count when positive.
	n int
}

type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Go         string `json:"go"`
}

type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Records   int                `json:"records"`
	Host      host               `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// CalibrationS is the run's median calibration time: a scaled timing
	// times CalibrationS / calibrationRef is about the time the host took.
	CalibrationS float64 `json:"calibration_s"`

	spans []span
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// fail counts a failed release.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	r.problem(format, args...)
}

type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs every workload, one child process each")
		seed     = flag.Int64("seed", 42, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 12, "length of the timed loop of releases")
		trace    = flag.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics")
		spansOut = flag.String("spans", "", "with -trace 1 and -workload, write the spans to this JSON file")
		out      = flag.String("out", "", "write the full reports (medians, quartiles, sample counts) to this JSON file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if *name == "" {
		if err := runAll(cfg, *out); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(workers)
	rep, err := run(w, cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	printSummary(os.Stderr, rep)
	if *spansOut != "" && cfg.trace {
		if err := writeJSON(*spansOut, map[string]any{"workload": rep.Workload, "seed": rep.Seed, "spans": rep.spans}); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, []*report{rep}); err != nil {
			fatal(err)
		}
	}
	full, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(full))
	fmt.Println(resultLine(rep))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kanonperf:", err)
	os.Exit(2)
}

// resultLine renders the final output line: the run's verdict and the
// median of every metric it measured.
func resultLine(rep *report) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = value{m.Median, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// run measures one workload in this process.
func run(w workload, cfg config) (*report, error) {
	n := w.n
	if cfg.n > 0 {
		n = cfg.n
	}
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Records: n, Correct: true,
		Host: host{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Go: runtime.Version(),
		},
	}
	s := samples{}
	clk := &clock{}

	in, err := generate(w, n, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// The layer-by-layer release is the reference every facade release must
	// reproduce byte for byte; it also warms the caches before timing.
	ctx := context.Background()
	tr := newTracer()
	ref, _, err := compose(ctx, tr, w, in)
	rep.Attempted++
	if err != nil {
		return nil, fmt.Errorf("layer-by-layer release: %w", err)
	}
	sameAsRef := func(out []byte, lossVal float64, dm int) bool {
		return bytes.Equal(out, ref.out) && lossVal == ref.loss && dm == ref.dm
	}

	var facadeWalls, tracedWalls []float64
	start := time.Now()
	for first := true; first || time.Since(start) < cfg.seconds; first = false {
		var r release
		m, err := clk.measure(func() (err error) {
			r, err = facadeRelease(ctx, w, in)
			return err
		})
		rep.Attempted++
		if err != nil {
			rep.fail("release: %v", err)
			continue
		}
		if !sameAsRef(r.out, r.loss, r.dm) {
			rep.fail("a release differs from the layer-by-layer release")
			continue
		}
		if !cfg.trace {
			s.add("release_s", m.wall)
			s.add("records_per_s", float64(n)/m.wall)
			s.add("release_cpu_s", m.cpu)
			continue
		}
		facadeWalls = append(facadeWalls, m.wall)
		var c composed
		var root int
		m, err = clk.measure(func() (err error) {
			c, root, err = compose(ctx, tr, w, in)
			return err
		})
		rep.Attempted++
		if err != nil {
			rep.fail("layer-by-layer release: %v", err)
			continue
		}
		if !sameAsRef(c.out, c.loss, c.dm) {
			rep.fail("two layer-by-layer releases differ")
			continue
		}
		t := tr.tree(root)
		if t.coverage < minCoverage {
			rep.problem("layer spans cover %.3f of a traced release, below %.2f", t.coverage, minCoverage)
		}
		tracedWalls = append(tracedWalls, m.wall)
		addLayers(s, t, c, len(in.csv))
		s.add("runtime.gc_cpu_s", m.gcCPU)
		s.add("runtime.alloc_mb", m.allocMB)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	s.add("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports kilobytes
	s.add("loss", ref.loss)

	// The set-up is timed only now, so that its garbage does not count
	// towards the releases' peak RSS.
	if err := timeSetup(rep, s, clk, w, n, cfg.seed, in); err != nil {
		return nil, err
	}

	auditStart := time.Now()
	for i := 0; i < minAuditRuns || time.Since(auditStart) < auditBudget; i++ {
		var root int
		m, err := clk.measure(func() (err error) {
			root, err = audit(tr, w, ref)
			return err
		})
		if err != nil {
			rep.fail("audit: %v", err)
			break
		}
		t := tr.tree(root)
		s.add("audit_s", m.wall)
		s.add("anonymity.check_s", t.total["anonymity.check"])
		s.add("risk.attacks_share", t.total["risk.attacks"]/t.wall)
	}
	if len(tracedWalls) > 0 {
		s.add("trace.overhead_frac", median(tracedWalls)/median(facadeWalls)-1)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep.Metrics = make(map[string]summary, len(defs))
	for _, d := range defs {
		if len(s[d.name]) == 0 {
			rep.problem("metric %s has no samples", d.name)
			continue
		}
		rep.Metrics[d.name] = summarize(s[d.name], d.unit)
	}
	rep.CalibrationS = median(clk.calibrations)
	rep.spans = tr.spans
	return rep, nil
}

// timeSetup generates the workload's inputs again and again, checks that
// they equal in, and records the time of each generation as a setup_s
// sample.
func timeSetup(rep *report, s samples, clk *clock, w workload, n int, seed int64, in inputs) error {
	runtime.GC()
	before := clk.calibrate()
	var walls []float64
	start := time.Now()
	for i := 0; i < minSetupRuns || (i < maxSetupRuns && time.Since(start) < setupBudget); i++ {
		t0 := time.Now()
		next, err := generate(w, n, seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(t0).Seconds())
		if !bytes.Equal(next.csv, in.csv) || !bytes.Equal(next.hier, in.hier) {
			rep.problem("set-up made different inputs from the same seed")
		}
	}
	scale := calibrationRef / ((before + clk.calibrate()) / 2)
	for _, wall := range walls {
		s.add("setup_s", wall*scale)
	}
	return nil
}

// release is what a user of the kanon CLI gets back: the released CSV, its
// loss and its discernibility.
type release struct {
	out  []byte
	loss float64
	dm   int
}

// facadeRelease makes one release the way the kanon CLI does, through the
// public facade.
func facadeRelease(ctx context.Context, w workload, in inputs) (release, error) {
	t, err := kanon.LoadCSV(bytes.NewReader(in.csv), true)
	if err != nil {
		return release{}, err
	}
	if err := t.SetHierarchiesJSON(bytes.NewReader(in.hier)); err != nil {
		return release{}, err
	}
	res, err := kanon.AnonymizeContext(ctx, t, w.opt)
	if err != nil {
		return release{}, err
	}
	var out bytes.Buffer
	if err := res.WriteCSV(&out); err != nil {
		return release{}, err
	}
	return release{out: out.Bytes(), loss: res.Loss(), dm: res.Discernibility()}, nil
}

// addLayers adds the per-layer samples of one traced release.
func addLayers(s samples, t tree, c composed, csvBytes int) {
	for _, layer := range []string{"dataio.read", "dataio.hier", "loss.measure", "cluster.space", "dataio.write", "loss.table_loss"} {
		s.add(layer+"_s", t.total[layer])
	}
	s.add("dataio.read_mb_per_s", float64(csvBytes)/1e6/t.total["dataio.read"])

	share := func(sec float64) float64 { return sec / t.wall }
	initS, merge := t.total["cluster.init"], t.total["cluster.merge"]
	s.add("cluster.engine_share", share(initS+merge+t.total["cluster.absorb"]))
	s.add("cluster.init_share", share(initS))
	s.add("cluster.merge_share", share(merge))
	s.add("core.k1_share", share(t.total["core.k1"]))
	s.add("core.make1k_share", share(t.total["core.make1k"]))
	s.add("core.global_share", share(t.total["core.global"]))
	// The partition layer's own time: the split, the shard supervisor and
	// the merge of the shards' clusters, without the cluster engine phases.
	s.add("core.partition_share", share(t.self["core.partition"]))

	st := c.stats
	for _, name := range layerCounters {
		s.add(name, float64(st.Counter(name)))
	}
	evals := st.Counter("cluster.dist_evals") + st.Counter("core.k1.scan_evals")
	s.add("dist.ns_per_eval", (initS+merge+t.total["core.k1"])*1e9/float64(evals))
	s.add("cluster.live_peak", float64(st.Peaks["cluster.live_peak"]))
	s.add("cluster.heap.useful_pop_ratio", ratio(st.Counter("cluster.merges"), st.Counter("cluster.merges")+st.Counter("cluster.heap.stale_pops")))
	s.add("core.global.matchings_per_step", ratio(st.Counter("core.global.matchings"), st.Counter("core.global.steps")))
	s.add("trace.coverage_frac", t.coverage)
}

// ratio is a/b, or 0 for a layer that did no work.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// calibrationRef is the calibration time on the host the bounds were
// measured on (Intel Xeon, 2 vCPUs), in a quiet minute.
const calibrationRef = 0.0047

// A shared host runs the same code faster or slower for minutes at a time,
// and not every kind of code by the same factor. On the host the bounds
// were measured on, 30-second medians of one k-adt10k release ranged over
// 14% (quartile distance over median) and those of its audit over 21%. The
// end-to-end timings are therefore scaled by calibrationRef over a
// calibration time taken just before and after each measurement: the
// geometric mean of a floating-point loop, which the releases' distance
// loops follow, and a walk of random reads through a 1 MB table, which the
// audit's graph work follows. Scaled, the same medians ranged over 5% and
// 15%. No change to kanon can make the calibration faster, so a faster
// release still reads faster.
type clock struct {
	calibrations []float64
}

var (
	calibrationSink float64
	// calibrationTable is written once so that its pages are real memory,
	// not the kernel's shared zero page.
	calibrationTable = func() []float64 {
		t := make([]float64, 1<<17)
		for i := range t {
			t[i] = float64(i % 13)
		}
		return t
	}()
)

// calibrate returns the calibration time: the geometric mean of the best
// of three timings of each calibration loop.
func (c *clock) calibrate() float64 {
	alu := bestOfThree(func() {
		x := 0.0
		for i := 0; i < 4_000_000; i++ {
			x += float64(i%7) * 1.0000001
		}
		calibrationSink += x
	})
	walk := bestOfThree(func() {
		x, sum := uint32(1), 0.0
		for i := 0; i < 3_000_000; i++ {
			x = x*1664525 + 1013904223
			sum += calibrationTable[x>>15]
		}
		calibrationSink += sum
	})
	cal := math.Sqrt(alu * walk)
	c.calibrations = append(c.calibrations, cal)
	return cal
}

func bestOfThree(fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		fn()
		best = math.Min(best, time.Since(t0).Seconds())
	}
	return best
}

// measurement is one timed call; wall and cpu are scaled to the reference
// host.
type measurement struct {
	wall, cpu      float64
	allocMB, gcCPU float64
}

// measure collects garbage, so that no call pays for its predecessor's,
// and times fn between two calibrations.
func (c *clock) measure(fn func() error) (measurement, error) {
	runtime.GC()
	before := c.calibrate()
	r0 := sampleRuntime()
	err := fn()
	r1 := sampleRuntime()
	scale := calibrationRef / ((before + c.calibrate()) / 2)
	return measurement{
		wall:    r1.wall.Sub(r0.wall).Seconds() * scale,
		cpu:     (r1.cpu - r0.cpu) * scale,
		allocMB: float64(r1.allocBytes-r0.allocBytes) / 1e6,
		gcCPU:   r1.gcCPU - r0.gcCPU,
	}, err
}

type runtimeSample struct {
	wall       time.Time
	cpu        float64
	allocBytes uint64
	gcCPU      float64
}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeSample{
		wall:       time.Now(),
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		allocBytes: ms[0].Value.Uint64(),
		gcCPU:      ms[1].Value.Float64(),
	}
}

func summarize(vals []float64, unit string) summary {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return summary{
		Median: quantile(sorted, 0.5),
		Q1:     quantile(sorted, 0.25),
		Q3:     quantile(sorted, 0.75),
		N:      len(sorted),
		Unit:   unit,
	}
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

func printSummary(w io.Writer, rep *report) {
	fmt.Fprintf(w, "%s seed=%d n=%d trace=%t correct=%t attempted=%d failed=%d num_cpu=%d gomaxprocs=%d\n",
		rep.Workload, rep.Seed, rep.Records, rep.Trace, rep.Correct, rep.Attempted, rep.Failed, rep.Host.NumCPU, rep.Host.GOMAXPROCS)
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "  problem:", p)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g  [%.6g, %.6g]  n=%-3d %s\n", name, m.Median, m.Q1, m.Q3, m.N, m.Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in its own child process, one after the other,
// so each has its own heap and peak RSS.
func runAll(cfg config, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	var reports []json.RawMessage
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds.Seconds(), 'g', -1, 64), "-trace", trace)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // the child dies with this process
		stdout, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		if len(lines) < 2 {
			return fmt.Errorf("%s: %v", w.name, runErr)
		}
		reports = append(reports, json.RawMessage(lines[len(lines)-2]))
		fmt.Println(lines[len(lines)-1])
		if runErr != nil {
			failed = append(failed, w.name)
		}
	}
	if out != "" {
		if err := writeJSON(out, reports); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("incorrect results on %s", strings.Join(failed, ", "))
	}
	return nil
}
