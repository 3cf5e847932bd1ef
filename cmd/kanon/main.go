// Command kanon anonymizes a CSV table of public attributes according to
// one of the k-type anonymity notions of "k-Anonymization Revisited".
//
// Usage:
//
//	kanon -in data.csv -hier hierarchies.json -k 10 -notion kk -out anon.csv
//
// Notions: k (classical k-anonymity), kk ((k,k)-anonymity, the paper's
// practical recommendation), global (global (1,k)-anonymity). -alg picks
// the notion's algorithm: agglomerative (the default), modified, forest (the
// Aggarwal et al. baseline) or full-domain for k; expand (the default) or
// nearest for kk and global.
// The hierarchy spec is optional; without it every attribute may only be
// kept or fully suppressed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kanon"
	"kanon/internal/core"
)

func main() {
	var (
		inPath     = flag.String("in", "", "input CSV file (default stdin)")
		hierPath   = flag.String("hier", "", "JSON generalization-hierarchy spec (optional)")
		outPath    = flag.String("out", "", "output CSV file (default stdout)")
		noHeader   = flag.Bool("no-header", false, "input CSV has no header row")
		k          = flag.Int("k", 10, "anonymity parameter k")
		notion     = flag.String("notion", "kk", "anonymity notion: k, kk, global")
		measure    = flag.String("measure", "entropy", "loss measure: entropy, monotone-entropy, lm, tree, suppression")
		alg        = flag.String("alg", "", "algorithm: agglomerative (default), modified, forest, full-domain for notion=k; expand (default), nearest for kk and global")
		distance   = flag.String("distance", "", "distance of -alg agglomerative or modified: d1..d4, nc (default d3)")
		verify     = flag.Bool("verify", false, "verify the output against all notions (quadratic)")
		attackRpt  = flag.Bool("attack", false, "run the adversarial evaluation suite against the output and print the risk report (quadratic)")
		constraint = flag.String("constraint", "", "privacy constraints on the sensitive attribute, comma-separated name=value specs: distinct=L, entropy=L, recursive=C/L, tclose=T (needs -sensitive)")
		sensPath   = flag.String("sensitive", "", "file with one sensitive value per record (enables -constraint)")
		autoHier   = flag.Int("auto-hier", 0, "infer interval hierarchies for numeric attributes (base bucket width, 0=off)")
		workers    = flag.Int("workers", 0, "worker pool size for the parallel anonymizers (0 = all CPUs, 1 = sequential; output is identical)")
		timeout    = flag.Duration("timeout", 0, "abort the run after this duration (e.g. 30s; 0 = no limit)")
		maxRec     = flag.Int("max-records", 0, "fail fast when the input has more than this many records (0 = no limit)")
		stats      = flag.Bool("stats", false, "print the run's statistics (phases, counters, peaks) as JSON on stderr")
		profile    = flag.String("profile", "", "write cpu.pprof, heap.pprof and trace.out into this directory")
		maxChunk   = flag.Int("max-chunk", 0, "switch -alg agglomerative or modified to the sharded partitioned pipeline with chunks of at most this many records (0 = off)")
		shardCkpt  = flag.String("shard-checkpoint", "", "JSONL file of completed-shard checkpoints: existing entries resume a failed or killed run, new shards are appended (needs -max-chunk)")
	)
	flag.Parse()

	cons, err := kanon.ParseConstraints(*constraint)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kanon: bad -constraint: %v\n", err)
		os.Exit(2)
	}
	cfg := runConfig{
		In:         *inPath,
		Hier:       *hierPath,
		Out:        *outPath,
		Sensitive:  *sensPath,
		AutoHier:   *autoHier,
		MaxRecords: *maxRec,
		Header:     !*noHeader,
		Opt: kanon.Options{
			K:           *k,
			Notion:      kanon.Notion(*notion),
			Algorithm:   kanon.Algorithm(*alg),
			Measure:     kanon.MeasureName(*measure),
			Distance:    *distance,
			Constraints: cons,
			Workers:     *workers,
			MaxChunk:    *maxChunk,
		},
		Verify:    *verify,
		Attack:    *attackRpt,
		Stats:     *stats,
		Profile:   *profile,
		ShardCkpt: *shardCkpt,
	}
	if err := checkFlags(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kanon:", err)
		os.Exit(2)
	}

	var ctx context.Context
	if *timeout > 0 {
		c, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		ctx = c
	}
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "kanon:", err)
		os.Exit(1)
	}
}

// checkFlags rejects bad flag combinations before any file is opened,
// naming the offending flag.
func checkFlags(c runConfig) error {
	if c.ShardCkpt != "" && c.Opt.MaxChunk <= 0 {
		return errors.New("bad -shard-checkpoint: requires -max-chunk > 0")
	}
	if c.Hier != "" && c.AutoHier > 0 {
		return errors.New("bad -auto-hier: -hier and -auto-hier are mutually exclusive")
	}
	if err := c.Opt.Validate(); err != nil {
		var oe *kanon.OptionsError
		if errors.As(err, &oe) {
			return fmt.Errorf("bad -%s: %s (value %v)", flagFor(oe.Field), oe.Reason, oe.Value)
		}
		return err
	}
	return nil
}

// flagFor maps an OptionsError field to the CLI flag that feeds it.
func flagFor(field string) string {
	switch field {
	case "K":
		return "k"
	case "Algorithm":
		return "alg"
	case "MaxChunk":
		return "max-chunk"
	case "OnShard", "CompletedShards":
		return "shard-checkpoint"
	case "Constraints":
		return "constraint"
	default:
		return strings.ToLower(field)
	}
}

// runConfig collects everything one CLI invocation needs; flags map onto it
// 1:1.
type runConfig struct {
	In, Hier, Out, Sensitive string
	AutoHier                 int
	MaxRecords               int
	Header                   bool
	Opt                      kanon.Options
	Verify                   bool
	// Attack runs the adversarial evaluation suite against the release and
	// prints the risk report on stderr.
	Attack bool
	// Stats prints the run's RunStats as JSON on stderr.
	Stats bool
	// Profile, when non-empty, is a directory receiving cpu.pprof,
	// heap.pprof and trace.out captures bracketing the anonymization.
	Profile string
	// ShardCkpt, when non-empty, is a JSONL shard-checkpoint file: existing
	// entries seed Options.CompletedShards (resuming a failed or killed
	// partitioned run), and every newly completed shard is appended as one
	// line, which survives a killed process (not a power loss: the file is
	// never synced).
	ShardCkpt string
}

// loadShardCheckpoints reads a JSONL shard-checkpoint file, tolerating a
// missing file (fresh run) and a torn trailing line (killed run), which is
// truncated away so the appends of the resumed run start on a clean line
// boundary. A later line for a shard overrides an earlier one.
func loadShardCheckpoints(path string) ([]kanon.ShardCheckpoint, error) {
	var out []kanon.ShardCheckpoint
	at := make(map[int]int) // shard → its index in out
	dropped, err := core.LoadLog(path, func(line []byte) error {
		var ck kanon.ShardCheckpoint
		if err := json.Unmarshal(line, &ck); err != nil {
			return err
		}
		if j, ok := at[ck.Shard]; ok {
			out[j] = ck
			return nil
		}
		at[ck.Shard] = len(out)
		out = append(out, ck)
		return nil
	})
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "kanon: dropping torn tail of %s (%d bytes)\n", path, dropped)
	}
	return out, err
}

func run(ctx context.Context, c runConfig) error {
	var in io.Reader = os.Stdin
	if c.In != "" {
		f, err := os.Open(c.In)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	tbl, err := kanon.LoadCSVLimit(in, c.Header, c.MaxRecords)
	if err != nil {
		return err
	}
	if c.AutoHier > 0 {
		if err := tbl.AutoHierarchies(c.AutoHier); err != nil {
			return err
		}
	}
	if c.Hier != "" {
		hf, err := os.Open(c.Hier)
		if err != nil {
			return err
		}
		err = tbl.SetHierarchiesJSON(hf)
		hf.Close()
		if err != nil {
			return err
		}
	}
	if c.Sensitive != "" {
		data, err := os.ReadFile(c.Sensitive)
		if err != nil {
			return err
		}
		values := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if err := tbl.SetSensitive("sensitive", values); err != nil {
			return err
		}
	}

	opt := c.Opt
	if c.ShardCkpt != "" {
		completed, err := loadShardCheckpoints(c.ShardCkpt)
		if err != nil {
			return err
		}
		opt.CompletedShards = completed
		f, err := os.OpenFile(c.ShardCkpt, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		// Shards complete sequentially on the driving goroutine, so the
		// append needs no locking. Each line reaches the OS when written, so
		// it survives a killed process; it is not synced, so a power loss
		// may drop it.
		opt.OnShard = func(ck kanon.ShardCheckpoint) {
			if err := enc.Encode(ck); err != nil {
				fmt.Fprintln(os.Stderr, "kanon: shard checkpoint write:", err)
			}
		}
		if len(completed) > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d completed shards loaded from %s\n", len(completed), c.ShardCkpt)
		}
	}
	var prof *kanon.Profile
	if c.Profile != "" {
		if err := os.MkdirAll(c.Profile, 0o755); err != nil {
			return err
		}
		// A trace observer pairs the trace.out capture with per-phase
		// regions.
		opt.Observer = kanon.TraceObserver()
		p, err := kanon.StartProfile(kanon.ProfileDir(c.Profile))
		if err != nil {
			return err
		}
		prof = p
	}
	res, err := kanon.AnonymizeContext(ctx, tbl, opt)
	if prof != nil {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("run did not finish within the -timeout: %w", err)
		}
		return err
	}

	var out io.Writer = os.Stdout
	if c.Out != "" {
		f, err := os.Create(c.Out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := res.WriteCSV(out); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "n=%d k=%d notion=%s measure=%s loss=%.4f discernibility=%d\n",
		tbl.Len(), opt.K, opt.Notion, opt.Measure, res.Loss(), res.Discernibility())
	st := res.Stats()
	if opt.MaxChunk > 0 {
		fmt.Fprintf(os.Stderr, "shards=%d checkpoint_hits=%d\n",
			st.Counter("resilient.shards"), st.Counter("resilient.checkpoint_hits"))
	}
	report, err := res.ConstraintReport()
	if err != nil {
		return err
	}
	for _, cs := range report {
		fmt.Fprintf(os.Stderr, "constraint %s: satisfied=%v violations=%d classes=%d metric=[%.3f, %.3f]\n",
			cs.Constraint, cs.Satisfied, cs.Violations, cs.Classes, cs.MinMetric, cs.MaxMetric)
	}
	if opt.Notion == kanon.NotionGlobal1K {
		fmt.Fprintf(os.Stderr, "global upgrade: %d deficient records, %d widening steps\n",
			st.Counter("core.global.deficient"), st.Counter("core.global.steps"))
	}
	if c.Stats {
		fmt.Fprintln(os.Stderr, st.JSON())
	}
	if c.Verify {
		fmt.Fprintln(os.Stderr, res.Verify(opt.K))
	}
	if c.Attack {
		sum, err := res.AttackEvaluation(opt.K)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "attack report k=%d over %d records:\n", sum.K, sum.Records)
		for _, v := range []kanon.AttackVector{sum.Matching, sum.Refinement, sum.Intersection} {
			fmt.Fprintf(os.Stderr, "  %-12s vulnerable=%d (%.1f%%) min-candidates=%d exposed=%d\n",
				v.Attack, v.Vulnerable, v.VulnerablePct, v.MinCandidates, v.Exposed)
		}
		fmt.Fprintf(os.Stderr, "  %-12s vulnerable=%d (%.1f%%)\n", "union", sum.VulnerableUnion, sum.Score)
	}
	return nil
}
