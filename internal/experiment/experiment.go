// Package experiment reproduces the evaluation of "k-Anonymization
// Revisited" (Section VI): Table I, Figures 2 and 3, and the ablation
// findings the text reports (distance functions (10)/(11) win, Algorithm 4
// beats Algorithm 3, the modified agglomerative refinement helps little for
// the best distances). Each experiment is keyed by the DESIGN.md experiment
// index (E1–E13).
package experiment

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/redact"
	"kanon/internal/resilient"
	"kanon/internal/risk"
	"kanon/internal/table"
)

// Config controls dataset sizes and the k sweep. The zero value is not
// usable; call DefaultConfig or FullConfig.
type Config struct {
	// NART, NADT, NCMC are the record counts of the three datasets.
	NART, NADT, NCMC int
	// Seed drives all generators.
	Seed int64
	// Ks is the sweep of anonymity parameters; the paper uses 5,10,15,20.
	Ks []int
	// Verify re-checks every output against the anonymity verifiers
	// (quadratic; intended for small harness runs).
	Verify bool
	// Workers caps the worker pool driving the runs of a block and is also
	// handed down to the parallel engines inside each run; 0 sizes the pool
	// to the machine. Any value produces identical results.
	Workers int
	// Log, when non-nil, receives one line per completed run. Writes are
	// serialized, so it need not be safe for concurrent use. It is
	// excluded from JSON output.
	Log io.Writer `json:"-"`
	// Deterministic zeroes every wall-clock field of the output (Run.Millis,
	// the engine phase timings, Block.Millis) so that two runs over the same
	// config — in particular a checkpointed run resumed after a crash and an
	// uninterrupted one — serialize byte-identically.
	Deterministic bool
	// Ctx, when non-nil, cancels the suite: no further runs start once it is
	// done, in-flight runs stop at their next scan/merge boundary, and
	// RunBlock returns ctx.Err(). It is excluded from JSON output.
	Ctx context.Context `json:"-"`
	// Completed pre-seeds finished runs by Run.Key(): a scheduled run whose
	// key is present is not executed, the stored Run is reused verbatim.
	// This is the resume half of checkpointing. Excluded from JSON output.
	Completed map[string]Run `json:"-"`
	// OnRun, when non-nil, is invoked (serially) for every freshly executed
	// run — not for runs replayed from Completed — as the persistence half
	// of checkpointing. Excluded from JSON output.
	OnRun func(Run) `json:"-"`
	// Metrics attaches a fresh obs.Metrics aggregator to every run and
	// stores its snapshot in Run.Obs (normalized under Deterministic, so
	// checkpointed and uninterrupted suites still serialize identically).
	Metrics bool
	// Attack evaluates the adversarial suite (matching, refinement and
	// intersection attacks — DESIGN.md §13) against every run's release,
	// stores the report in Run.Risk and emits the attack.* counters into
	// the run's observability stream. Quadratic in the release size;
	// intended for harness-scale runs.
	Attack bool
	// Observer, when non-nil, additionally receives every run's raw event
	// stream plus one KindCheckpoint event per OnRun persistence call. It
	// must be safe for concurrent use: runs of a block execute in parallel
	// and share it. Excluded from JSON output.
	Observer obs.Recorder `json:"-"`
	// OnShard, when non-nil, receives every completed partitioned shard of
	// the scalability experiment (E19), keyed by the scale run it belongs
	// to — the persistence half of shard-granular checkpointing (the run
	// level Completed/OnRun pair resumes whole runs; this pair resumes
	// inside a killed partitioned run). Excluded from JSON output.
	OnShard func(runKey string, ck resilient.ShardCheckpoint) `json:"-"`
	// CompletedShards pre-seeds partitioned shards by scale-run key: shards
	// whose checkpoint signature still matches are restored instead of
	// recomputed. Excluded from JSON output.
	CompletedShards map[string]map[int]resilient.ShardCheckpoint `json:"-"`
}

// DefaultConfig sizes the datasets so the full suite finishes in a few
// minutes: ART 1000, ADT 2000, CMC 1473.
func DefaultConfig() Config {
	return Config{NART: 1000, NADT: 2000, NCMC: 1473, Seed: 42, Ks: []int{5, 10, 15, 20}}
}

// FullConfig uses the paper's dataset sizes (ADT 5000, CMC 1500) and ART at
// 5000.
func FullConfig() Config {
	return Config{NART: 5000, NADT: 5000, NCMC: 1500, Seed: 42, Ks: []int{5, 10, 15, 20}}
}

// MeasureKind selects the information-loss measure of a run.
type MeasureKind string

// The measures of the paper's experiments (Section VI: "EM" and "LM").
const (
	EM MeasureKind = "EM"
	LM MeasureKind = "LM"
)

// Run is one algorithm execution on one dataset/measure/k combination.
type Run struct {
	Dataset   string
	Measure   MeasureKind
	Algorithm string
	K         int
	Loss      float64
	// Verified is set when Config.Verify is on and the output passed the
	// verifier for the notion the algorithm claims.
	Verified bool
	// Millis is the run's wall time.
	Millis int64
	// Engine carries the clustering engine's work counters and phase
	// timings for the agglomerative runs (nil for the other algorithms).
	Engine *cluster.AggloStats `json:",omitempty"`
	// Obs carries the run's aggregated observability stats when
	// Config.Metrics is on (nil otherwise).
	Obs *obs.RunStats `json:",omitempty"`
	// Risk carries the adversarial evaluation of the run's release when
	// Config.Attack is on (nil otherwise).
	Risk *risk.AttackReport `json:",omitempty"`
	// Error records why the run produced no result (a recovered panic, an
	// algorithm error, or a failed verification); the loss fields are zero
	// and the run is excluded from the block's series. Empty on success.
	Error string `json:",omitempty"`
}

// Key identifies a run within a suite, for checkpoint lookups.
func (r Run) Key() string {
	return fmt.Sprintf("%s|%s|%s|%d", r.Dataset, r.Measure, r.Algorithm, r.K)
}

// Series is an algorithm's loss as a function of k.
type Series struct {
	Algorithm string
	Losses    map[int]float64
}

// SumLoss returns the sum of losses over the given k values — the paper's
// criterion for choosing the "best k-anon" variant.
func (s Series) SumLoss(ks []int) float64 {
	sum := 0.0
	for _, k := range ks {
		sum += s.Losses[k]
	}
	return sum
}

// Block is one dataset × measure cell of Table I: every algorithm variant's
// series plus the three paper rows derived from them.
type Block struct {
	Dataset string
	Measure MeasureKind
	Ks      []int

	// KAnonVariants holds the eight agglomerative variants (basic/modified
	// × d1..d4); Forest the baseline; KKVariants the two couplings
	// (Algorithm 3+5 and 4+5).
	KAnonVariants []Series
	Forest        Series
	KKVariants    []Series

	// BestKAnon and BestKK are the variants minimizing the loss summed over
	// Ks, as the paper's Table I reports.
	BestKAnon Series
	BestKK    Series

	// Runs holds every individual run of the block (with per-run timings
	// and engine counters); Millis is the block's total wall time.
	Runs   []Run
	Millis int64
}

// dataset materializes one of the paper's three datasets per the config.
func (c Config) dataset(name string) (*datagen.Dataset, error) {
	switch name {
	case "ART":
		return datagen.ART(c.NART, c.Seed), nil
	case "ADT":
		return datagen.Adult(c.NADT, c.Seed), nil
	case "CMC":
		return datagen.CMC(c.NCMC, c.Seed), nil
	default:
		return nil, fmt.Errorf("experiment: unknown dataset %q", name)
	}
}

// newSpace builds the clustering space for a dataset under a measure.
func newSpace(ds *datagen.Dataset, m MeasureKind) (*cluster.Space, loss.Measure, error) {
	var meas loss.Measure
	switch m {
	case EM:
		em, err := loss.NewEntropy(ds.Table, ds.Hiers)
		if err != nil {
			return nil, nil, err
		}
		meas = em
	case LM:
		meas = loss.NewLM(ds.Hiers)
	default:
		return nil, nil, fmt.Errorf("experiment: unknown measure %q", m)
	}
	s, err := cluster.NewSpace(ds.Hiers, meas)
	if err != nil {
		return nil, nil, err
	}
	return s, meas, nil
}

// logMu serializes writes to Config.Log: the runs of a block log from the
// pool's workers, and the writer need not be safe for concurrent use.
var logMu sync.Mutex

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// kAnonVariantNames enumerates the eight agglomerative variants in
// deterministic order.
func kAnonVariants() []struct {
	name     string
	dist     cluster.Distance
	modified bool
} {
	var out []struct {
		name     string
		dist     cluster.Distance
		modified bool
	}
	for _, d := range cluster.PaperDistances() {
		for _, mod := range []bool{false, true} {
			name := "agglo-basic-" + d.Name()
			if mod {
				name = "agglo-mod-" + d.Name()
			}
			out = append(out, struct {
				name     string
				dist     cluster.Distance
				modified bool
			}{name, d, mod})
		}
	}
	return out
}

// RunBlock computes one dataset × measure cell of Table I (experiments
// E1–E6): all agglomerative variants, the forest baseline, and both (k,k)
// couplings, across the configured k sweep. Independent runs execute on a
// worker pool.
func (c Config) RunBlock(dataset string, m MeasureKind) (*Block, error) {
	ds, err := c.dataset(dataset)
	if err != nil {
		return nil, err
	}
	s, meas, err := newSpace(ds, m)
	if err != nil {
		return nil, err
	}

	type job struct {
		algorithm string
		k         int
		run       func(ctx context.Context) (*table.GenTable, *cluster.AggloStats, error)
		verify    func(g *table.GenTable, k int) bool
	}
	var jobs []job
	verifyKAnon := func(g *table.GenTable, k int) bool { return anonymity.IsKAnonymous(g, k) }
	verifyKK := func(g *table.GenTable, k int) bool { return anonymity.IsKK(s, ds.Table, g, k) }

	for _, v := range kAnonVariants() {
		v := v
		for _, k := range c.Ks {
			k := k
			jobs = append(jobs, job{v.name, k, func(ctx context.Context) (*table.GenTable, *cluster.AggloStats, error) {
				g, _, st, err := core.KAnonymizeStatsCtx(ctx, s, ds.Table, cluster.AggloOptions{
					K: k, Distance: v.dist, Modified: v.modified, Workers: c.Workers,
				})
				return g, &st, err
			}, verifyKAnon})
		}
	}
	for _, k := range c.Ks {
		k := k
		jobs = append(jobs, job{"forest", k, func(ctx context.Context) (*table.GenTable, *cluster.AggloStats, error) {
			g, _, err := core.ForestCtx(ctx, s, ds.Table, k)
			return g, nil, err
		}, verifyKAnon})
		jobs = append(jobs, job{"kk-nearest", k, func(ctx context.Context) (*table.GenTable, *cluster.AggloStats, error) {
			g, err := core.KKAnonymizeCtx(ctx, s, ds.Table, k, core.K1ByNearest, nil, nil, c.Workers)
			return g, nil, err
		}, verifyKK})
		jobs = append(jobs, job{"kk-expand", k, func(ctx context.Context) (*table.GenTable, *cluster.AggloStats, error) {
			g, err := core.KKAnonymizeCtx(ctx, s, ds.Table, k, core.K1ByExpansion, nil, nil, c.Workers)
			return g, nil, err
		}, verifyKK})
	}

	blockStart := time.Now()
	results := make([]Run, len(jobs))
	var onRunMu sync.Mutex
	var checkpointed int64
	// drv stamps the driver's own events (checkpoint writes) for an
	// external observer; per-run engine events flow through runCtx below.
	drv := obs.NewRun(c.Observer)
	p := par.New(c.Workers)
	defer p.Close()
	eachErr := p.EachCtx(c.Ctx, len(jobs), func(ji int) {
		j := jobs[ji]
		r := Run{Dataset: dataset, Measure: m, Algorithm: j.algorithm, K: j.k}
		if prev, ok := c.Completed[r.Key()]; ok {
			results[ji] = prev
			c.logf("skip %-8s %-2s %-16s k=%-3d (checkpointed)", dataset, m, j.algorithm, j.k)
			return
		}
		var met *obs.Metrics
		rec := c.Observer
		if c.Metrics {
			met = obs.NewMetrics()
			rec = obs.Tee(met, c.Observer)
		}
		runCtx := c.Ctx
		if rec != nil {
			runCtx = obs.With(c.Ctx, rec)
		}
		start := time.Now()
		g, engine, err := runRecovered(func() (*table.GenTable, *cluster.AggloStats, error) {
			return j.run(runCtx)
		})
		switch {
		case err != nil && ctxDone(c.Ctx):
			// The suite itself is being cancelled; EachCtx surfaces
			// ctx.Err() below, and an unfinished run must not be recorded
			// (or checkpointed) as failed.
			return
		case err != nil:
			r.Error = err.Error()
		default:
			r.Loss = loss.TableLoss(meas, g)
			r.Engine = engine
			if c.Verify {
				r.Verified = j.verify(g, j.k)
				if !r.Verified {
					r.Error = "output failed verification"
				}
			}
			if c.Attack && r.Error == "" {
				rep, aerr := risk.EvaluateAttacks(s, ds.Table, g, j.k, ds.Sensitive)
				if aerr != nil {
					r.Error = "attack evaluation: " + aerr.Error()
				} else {
					r.Risk = rep
					emitAttackCounters(obs.From(runCtx), rep)
				}
			}
		}
		r.Millis = time.Since(start).Milliseconds()
		if met != nil && r.Error == "" {
			st := met.Snapshot()
			st.Notion = j.algorithm
			st.Workers = par.Workers(c.Workers)
			st.Records = ds.Table.Len()
			r.Obs = &st
		}
		if c.Deterministic {
			r.Millis = 0
			if r.Engine != nil {
				e := *r.Engine
				e.InitNanos, e.SelectNanos, e.RepairNanos, e.AbsorbNanos = 0, 0, 0, 0
				r.Engine = &e
			}
			if r.Obs != nil {
				r.Obs.Normalize()
			}
		}
		results[ji] = r
		if r.Error != "" {
			c.logf("FAIL %-8s %-2s %-16s k=%-3d: %s", dataset, m, j.algorithm, j.k, r.Error)
		} else {
			c.logf("done %-8s %-2s %-16s k=%-3d loss=%.4f (%dms)", dataset, m, j.algorithm, j.k, r.Loss, r.Millis)
		}
		if c.OnRun != nil {
			onRunMu.Lock()
			c.OnRun(r)
			checkpointed++
			drv.Event(obs.KindCheckpoint, "experiment", checkpointed)
			onRunMu.Unlock()
		}
	})
	if eachErr != nil {
		return nil, eachErr
	}

	// Assemble series per algorithm; failed runs contribute no points.
	byAlg := make(map[string]Series)
	for _, r := range results {
		if r.Error != "" {
			continue
		}
		s, ok := byAlg[r.Algorithm]
		if !ok {
			s = Series{Algorithm: r.Algorithm, Losses: make(map[int]float64)}
		}
		s.Losses[r.K] = r.Loss
		byAlg[r.Algorithm] = s
	}
	b := &Block{
		Dataset: dataset, Measure: m, Ks: append([]int(nil), c.Ks...),
		Runs:   results,
		Millis: time.Since(blockStart).Milliseconds(),
	}
	if c.Deterministic {
		b.Millis = 0
	}
	for _, v := range kAnonVariants() {
		b.KAnonVariants = append(b.KAnonVariants, byAlg[v.name])
	}
	b.Forest = byAlg["forest"]
	b.KKVariants = []Series{byAlg["kk-nearest"], byAlg["kk-expand"]}
	b.BestKAnon = bestBySum(b.KAnonVariants, c.Ks)
	b.BestKK = bestBySum(b.KKVariants, c.Ks)
	return b, nil
}

// ctxDone reports whether a (possibly nil) context has been cancelled. It
// delegates to par.Done, the stack's single nil-context check.
func ctxDone(ctx context.Context) bool { return par.Done(ctx) }

// runRecovered invokes one run, converting a panic — including panics
// raised inside the run's own pool helpers, which arrive as *par.TaskPanic
// — into an error, so a single failing run cannot kill the block.
func runRecovered(fn func() (*table.GenTable, *cluster.AggloStats, error)) (g *table.GenTable, st *cluster.AggloStats, err error) {
	defer func() {
		if v := recover(); v != nil {
			if tp, ok := v.(*par.TaskPanic); ok {
				v = tp.Value
			}
			// The redacted form keeps the panic payload — which may embed
			// record values — out of Run.Error, which is checkpointed as
			// JSONL and printed by the CLIs (DESIGN.md §16).
			g, st, err = nil, nil, fmt.Errorf("run panicked: %s", redact.Panic(v))
		}
	}()
	return fn()
}

// complete reports whether the series has a loss for every k — a series
// with failed runs must not win a "best" selection on a zero default.
func (s Series) complete(ks []int) bool {
	for _, k := range ks {
		if _, ok := s.Losses[k]; !ok {
			return false
		}
	}
	return true
}

func bestBySum(series []Series, ks []int) Series {
	best := Series{}
	for _, s := range series {
		if !s.complete(ks) {
			continue
		}
		if best.Losses == nil || s.SumLoss(ks) < best.SumLoss(ks) {
			best = s
		}
	}
	if best.Losses == nil {
		// Every variant had failures; fall back to the first so callers
		// always see an algorithm name.
		return series[0]
	}
	return best
}

// RunTableI runs all six blocks of Table I (E1–E6) in the paper's order:
// ART/ADT/CMC under EM, then under LM.
func (c Config) RunTableI() ([]*Block, error) {
	var blocks []*Block
	for _, m := range []MeasureKind{EM, LM} {
		for _, d := range []string{"ART", "ADT", "CMC"} {
			b, err := c.RunBlock(d, m)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
		}
	}
	// Paper order: six row groups ART/ADT/CMC × EM then ART/ADT/CMC × LM —
	// already generated in that order.
	return blocks, nil
}

// RunFigure computes the three series of Figure 2 (measure EM) or Figure 3
// (measure LM) on the ADT dataset: best k-anon, forest, best (k,k).
func (c Config) RunFigure(m MeasureKind) (*Block, error) {
	return c.RunBlock("ADT", m)
}

// SortedKs returns the block's k values ascending.
func (b *Block) SortedKs() []int {
	ks := append([]int(nil), b.Ks...)
	sort.Ints(ks)
	return ks
}
