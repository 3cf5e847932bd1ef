// Command kanonbench regenerates the evaluation of "k-Anonymization
// Revisited": Table I, Figures 2 and 3, and the ablation findings of
// Section VI-A, per the experiment index in DESIGN.md (E1–E13).
//
// Usage:
//
//	kanonbench -exp table1            # default-scale Table I (E1–E6, E12)
//	kanonbench -exp fig2 -full        # Figure 2 at paper scale (E7)
//	kanonbench -exp all -v            # everything, with progress lines
//
// Dataset sizes default to ART 1000 / ADT 2000 / CMC 1473 so the suite
// finishes in minutes; -full switches to paper scale (ART 5000, ADT 5000,
// CMC 1500).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kanon/internal/core"
	"kanon/internal/experiment"
	"kanon/internal/plot"
)

func main() {
	var (
		exp     = flag.String("exp", "table1", "experiment: table1, fig2, fig3, distances, modified, k1, global, recoding, queries, diversity, scale, attack, constraints, all")
		full    = flag.Bool("full", false, "paper-scale dataset sizes")
		verify  = flag.Bool("verify", false, "verify every output against the anonymity definitions (slow)")
		verbose = flag.Bool("v", false, "print one line per completed run")
		asJSON  = flag.Bool("json", false, "emit machine-readable JSON instead of formatted text")
		svgDir  = flag.String("svg", "", "also write figure SVGs (fig2.svg, fig3.svg) to this directory")
		seed    = flag.Int64("seed", 42, "dataset generator seed")
		nART    = flag.Int("n-art", 0, "override ART size")
		nADT    = flag.Int("n-adt", 0, "override ADT size")
		nCMC    = flag.Int("n-cmc", 0, "override CMC size")
		workers = flag.Int("workers", 0, "worker pool size for runs and engines (0 = all CPUs, 1 = sequential; results are identical)")
		timeout = flag.Duration("timeout", 0, "abort the suite after this duration (e.g. 10m; 0 = no limit)")
		ckpt    = flag.String("checkpoint", "", "JSONL file persisting each completed run; implies deterministic output (timing fields zeroed)")
		resume  = flag.Bool("resume", false, "skip runs already recorded in the -checkpoint file")
	)
	flag.Parse()

	cfg := experiment.DefaultConfig()
	if *full {
		cfg = experiment.FullConfig()
	}
	cfg.Seed = *seed
	cfg.Verify = *verify
	cfg.Workers = *workers
	if *nART > 0 {
		cfg.NART = *nART
	}
	if *nADT > 0 {
		cfg.NADT = *nADT
	}
	if *nCMC > 0 {
		cfg.NCMC = *nCMC
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		cfg.Ctx = ctx
	}
	if *resume && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "kanonbench: -resume requires -checkpoint")
		os.Exit(2)
	}
	if *ckpt != "" {
		closeCkpt, err := setupCheckpoint(&cfg, *ckpt, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kanonbench:", err)
			os.Exit(1)
		}
		defer closeCkpt()
	}

	start := time.Now()
	r := &runner{cfg: cfg, blocks: make(map[string]*experiment.Block), svgDir: *svgDir}
	if err := r.run(os.Stdout, *exp, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "kanonbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "total time: %v (sizes ART=%d ADT=%d CMC=%d, seed=%d)\n",
		time.Since(start).Round(time.Millisecond), cfg.NART, cfg.NADT, cfg.NCMC, cfg.Seed)
}

// shardLine is the JSONL shape of a shard-granular checkpoint line from a
// partitioned scale run. Run lines stay plain experiment.Run objects; the
// scale_run discriminator never appears in a Run, so a loader can tell the
// two apart from the bytes alone.
type shardLine struct {
	ScaleRun string               `json:"scale_run"`
	Shard    core.ShardCheckpoint `json:"shard"`
}

// setupCheckpoint wires -checkpoint/-resume into the config: completed
// runs — and, for partitioned scale runs, completed shards — are appended
// to path as JSON lines the moment they finish (flushed per line, so a
// kill loses at most the in-flight work), and with resume the work already
// recorded is loaded and skipped. Checkpointing forces Deterministic so a
// resumed suite serializes byte-identically to an uninterrupted one.
func setupCheckpoint(cfg *experiment.Config, path string, resume bool) (func(), error) {
	cfg.Deterministic = true
	if resume {
		completed, shards, dropped, err := loadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "kanonbench: dropping torn tail of %s (%d bytes)\n", path, dropped)
		}
		cfg.Completed = completed
		cfg.CompletedShards = shards
		if len(completed) > 0 || len(shards) > 0 {
			nShards := 0
			for _, m := range shards {
				nShards += len(m)
			}
			fmt.Fprintf(os.Stderr, "resuming: %d runs, %d shards checkpointed in %s\n",
				len(completed), nShards, path)
		}
	} else if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("checkpoint file %s already exists (pass -resume to continue it, or remove it)", path)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// OnRun calls are serialized by experiment.Config, and OnShard fires on
	// the sequential shard loop, but the two surfaces can interleave
	// in principle — one mutex keeps every Encode an atomic line append.
	var mu sync.Mutex
	enc := json.NewEncoder(f)
	cfg.OnRun = func(r experiment.Run) {
		mu.Lock()
		defer mu.Unlock()
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "kanonbench: checkpoint write:", err)
		}
	}
	cfg.OnShard = func(runKey string, ck core.ShardCheckpoint) {
		mu.Lock()
		defer mu.Unlock()
		if err := enc.Encode(shardLine{ScaleRun: runKey, Shard: ck}); err != nil {
			fmt.Fprintln(os.Stderr, "kanonbench: checkpoint write:", err)
		}
	}
	return func() { f.Close() }, nil
}

// loadCheckpoint parses a JSONL checkpoint into a Run map keyed by
// Run.Key() plus a shard map keyed by scale-run key. A missing file is an
// empty checkpoint. A torn trailing line (from a mid-write kill) is
// truncated away, so the appends of the resumed suite start on a clean line
// boundary, and its length returned; an unreadable line with more data
// after it is an error and leaves the file untouched.
func loadCheckpoint(path string) (map[string]experiment.Run, map[string]map[int]core.ShardCheckpoint, int64, error) {
	completed := make(map[string]experiment.Run)
	shards := make(map[string]map[int]core.ShardCheckpoint)
	dropped, err := core.LoadLog(path, func(b []byte) error {
		var sl shardLine
		if err := json.Unmarshal(b, &sl); err != nil {
			return err
		}
		if sl.ScaleRun != "" {
			m := shards[sl.ScaleRun]
			if m == nil {
				m = make(map[int]core.ShardCheckpoint)
				shards[sl.ScaleRun] = m
			}
			m[sl.Shard.Shard] = sl.Shard
			return nil
		}
		var r experiment.Run
		if err := json.Unmarshal(b, &r); err != nil {
			return err
		}
		completed[r.Key()] = r
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return completed, shards, dropped, nil
}

// runner memoizes dataset × measure blocks so `-exp all` computes each of
// the six expensive blocks exactly once, and each dataset's E15/E16 pass so
// `recoding` and `queries` share one set of releases.
type runner struct {
	cfg       experiment.Config
	blocks    map[string]*experiment.Block
	recodings map[string]recodingPass
	svgDir    string
}

// recodingPass is one dataset's E15 and E16 rows, from one RunRecoding pass.
type recodingPass struct {
	rec []experiment.RecodingResult
	qs  []experiment.QueryResult
}

func (r *runner) block(dataset string, m experiment.MeasureKind) (*experiment.Block, error) {
	key := dataset + "/" + string(m)
	if b, ok := r.blocks[key]; ok {
		return b, nil
	}
	b, err := r.cfg.RunBlock(dataset, m)
	if err != nil {
		return nil, err
	}
	r.blocks[key] = b
	return b, nil
}

func (r *runner) recoding(dataset string) (recodingPass, error) {
	if rc, ok := r.recodings[dataset]; ok {
		return rc, nil
	}
	rec, qs, err := r.cfg.RunRecoding(dataset, 300)
	if err != nil {
		return recodingPass{}, err
	}
	if r.recodings == nil {
		r.recodings = make(map[string]recodingPass)
	}
	rc := recodingPass{rec, qs}
	r.recodings[dataset] = rc
	return rc, nil
}

func (r *runner) allBlocks() ([]*experiment.Block, error) {
	var out []*experiment.Block
	for _, m := range []experiment.MeasureKind{experiment.EM, experiment.LM} {
		for _, d := range []string{"ART", "ADT", "CMC"} {
			b, err := r.block(d, m)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
	}
	return out, nil
}

// collect runs one experiment and returns both its machine-readable data
// and its formatted text.
func (r *runner) collect(exp string) (interface{}, string, error) {
	switch exp {
	case "table1":
		blocks, err := r.allBlocks()
		if err != nil {
			return nil, "", err
		}
		text := experiment.FormatTableI(blocks) + "\n" + experiment.FormatPerEntrySummary(blocks)
		return blocks, text, nil
	case "fig2", "fig3":
		m := experiment.EM
		if exp == "fig3" {
			m = experiment.LM
		}
		blk, err := r.block("ADT", m)
		if err != nil {
			return nil, "", err
		}
		if r.svgDir != "" {
			if err := writeFigureSVG(r.svgDir, exp, blk); err != nil {
				return nil, "", err
			}
		}
		return blk, experiment.FormatFigureCSV(blk), nil
	case "distances", "modified", "k1":
		blocks, err := r.allBlocks()
		if err != nil {
			return nil, "", err
		}
		var text string
		for _, blk := range blocks {
			switch exp {
			case "distances":
				text += experiment.FormatDistanceAblation(blk) + "\n"
			case "modified":
				text += experiment.FormatModifiedAblation(blk) + "\n"
			case "k1":
				text += experiment.FormatK1Ablation(blk) + "\n"
			}
		}
		return blocks, text, nil
	case "global":
		var all []experiment.GlobalResult
		for _, d := range []string{"ART", "ADT", "CMC"} {
			res, err := r.cfg.RunGlobal(d, experiment.EM, []float64{0.2, 0.5})
			if err != nil {
				return nil, "", err
			}
			all = append(all, res...)
		}
		return all, experiment.FormatGlobal(all), nil
	case "recoding", "queries":
		var rec []experiment.RecodingResult
		var qs []experiment.QueryResult
		for _, d := range []string{"ART", "ADT", "CMC"} {
			rc, err := r.recoding(d)
			if err != nil {
				return nil, "", err
			}
			rec = append(rec, rc.rec...)
			qs = append(qs, rc.qs...)
		}
		if exp == "recoding" {
			return rec, experiment.FormatRecoding(rec), nil
		}
		return qs, experiment.FormatQueries(qs), nil
	case "scale":
		sizes := []int{1000, 2000, 4000}
		skipPlainAbove := 4000
		if r.cfg.NADT >= 5000 { // -full
			sizes = []int{1000, 2000, 5000, 10000, 20000}
			skipPlainAbove = 5000
		}
		res, err := r.cfg.RunScale(sizes, 10, 400, skipPlainAbove)
		if err != nil {
			return nil, "", err
		}
		return res, experiment.FormatScale(res), nil
	case "diversity":
		var all []experiment.DiversityResult
		for _, d := range []string{"ART", "ADT", "CMC"} {
			res, err := r.cfg.RunDiversity(d, 2)
			if err != nil {
				return nil, "", err
			}
			all = append(all, res...)
		}
		return all, experiment.FormatDiversity(all), nil
	case "constraints":
		var all []experiment.ConstraintResult
		for _, d := range []string{"ART", "ADT", "CMC"} {
			res, err := r.cfg.RunConstraints(d)
			if err != nil {
				return nil, "", err
			}
			all = append(all, res...)
		}
		return all, experiment.FormatConstraints(all), nil
	case "attack":
		var all []experiment.AttackResult
		for _, d := range []string{"ART", "ADT", "CMC"} {
			res, err := r.cfg.RunAttack(d)
			if err != nil {
				return nil, "", err
			}
			all = append(all, res...)
		}
		return all, experiment.FormatAttack(all), nil
	default:
		return nil, "", fmt.Errorf("unknown experiment %q", exp)
	}
}

// writeFigureSVG renders a figure block as <dir>/<name>.svg, in the style
// of the paper's Figures 2 and 3.
func writeFigureSVG(dir, name string, blk *experiment.Block) error {
	measureLabel := "entropy measure"
	if blk.Measure == experiment.LM {
		measureLabel = "LM measure"
	}
	chart := plot.Chart{
		Title:  fmt.Sprintf("Comparison of algorithms by the %s (%s)", measureLabel, blk.Dataset),
		XLabel: "k",
		YLabel: "Information loss",
	}
	type row struct {
		label  string
		s      experiment.Series
		dashed bool
	}
	for _, rw := range []row{
		{"k-anon.", blk.BestKAnon, false},
		{"forest alg.", blk.Forest, true},
		{"(k,k)-anon.", blk.BestKK, false},
	} {
		var xs, ys []float64
		for _, k := range blk.SortedKs() {
			xs = append(xs, float64(k))
			ys = append(ys, rw.s.Losses[k])
		}
		chart.Series = append(chart.Series, plot.Series{Name: rw.label, X: xs, Y: ys, Dashed: rw.dashed})
	}
	svg, err := chart.SVG()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".svg"), []byte(svg), 0o644)
}

var allExperiments = []string{
	"table1", "fig2", "fig3", "distances", "modified", "k1",
	"global", "recoding", "queries", "diversity", "scale", "attack",
	"constraints",
}

func (r *runner) run(w io.Writer, exp string, asJSON bool) error {
	names := []string{exp}
	if exp == "all" {
		names = allExperiments
	}
	type envelope struct {
		Experiment string            `json:"experiment"`
		Config     experiment.Config `json:"config"`
		Data       interface{}       `json:"data"`
	}
	var envelopes []envelope
	for _, name := range names {
		data, text, err := r.collect(name)
		if err != nil {
			return err
		}
		if asJSON {
			envelopes = append(envelopes, envelope{Experiment: name, Config: r.cfg, Data: data})
			continue
		}
		if exp == "all" {
			fmt.Fprintf(w, "==== %s ====\n", name)
		}
		fmt.Fprintln(w, text)
	}
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if len(envelopes) == 1 {
			return enc.Encode(envelopes[0])
		}
		return enc.Encode(envelopes)
	}
	return nil
}
