package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/table"
	"kanon/internal/workload"
)

// datagenAdult and nowMillis are tiny indirections keeping RunScale
// readable.
func datagenAdult(n int, seed int64) *datagen.Dataset { return datagen.Adult(n, seed) }

func nowMillis() int64 { return time.Now().UnixMilli() }

// RecodingResult is one row of the local-vs-global recoding ablation
// (E15, built by RunRecoding): the loss of local-recoding pipelines
// against the optimal full-domain (global-recoding) generalization,
// quantifying the utility argument of Section III for local recoding.
type RecodingResult struct {
	Dataset string
	Measure MeasureKind
	K       int

	LocalKAnon float64 // best agglomerative variant (d3)
	LocalKK    float64 // Algorithm 4 + 5
	FullDomain float64 // optimal global recoding
	Levels     []int   // the chosen full-domain level vector
}

// queryReleases names E16's releases in the order RunRecoding evaluates
// them.
var queryReleases = [...]string{"k-anon", "forest", "kk", "full-domain"}

// RunRecoding runs E15 and E16 on one dataset under the entropy measure.
// Both contrast local with full-domain recoding on the same releases, so
// one pass builds the d3 agglomerative, forest, Algorithm 4+5 and
// full-domain releases once per k, and returns E15's loss rows and E16's
// query-error rows for a fixed random workload of numQueries COUNT
// queries.
func (c Config) RunRecoding(dataset string, numQueries int) ([]RecodingResult, []QueryResult, error) {
	ds, err := c.dataset(dataset)
	if err != nil {
		return nil, nil, err
	}
	s, meas, err := newSpace(ds, EM)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed + 1000))
	queries, err := workload.Generate(rng, ds.Hiers, numQueries, 2)
	if err != nil {
		return nil, nil, err
	}
	var recs []RecodingResult
	var qs []QueryResult
	for _, k := range c.Ks {
		wrap := func(name string, err error) error {
			return fmt.Errorf("experiment: %s at k=%d: %w", name, k, err)
		}
		gK, err := core.KAnonymizeCtx(c.Ctx, s, ds.Table, cluster.AggloOptions{K: k, Workers: c.Workers})
		if err != nil {
			return nil, nil, wrap("k-anon", err)
		}
		gF, _, err := core.ForestCtx(c.Ctx, s, ds.Table, k)
		if err != nil {
			return nil, nil, wrap("forest", err)
		}
		gKK, err := core.KKAnonymizeCtx(c.Ctx, s, ds.Table, k, core.K1ByExpansion, nil, nil, c.Workers)
		if err != nil {
			return nil, nil, wrap("kk", err)
		}
		gFD, levels, err := core.FullDomainCtx(c.Ctx, s, ds.Table, k)
		if err != nil {
			return nil, nil, wrap("full-domain", err)
		}
		res := RecodingResult{Dataset: dataset, Measure: EM, K: k,
			LocalKAnon: loss.TableLoss(meas, gK),
			LocalKK:    loss.TableLoss(meas, gKK),
			FullDomain: loss.TableLoss(meas, gFD),
			Levels:     levels,
		}
		recs = append(recs, res)
		c.logf("done %-8s %-2s recoding          k=%-3d local=%.4f kk=%.4f full-domain=%.4f",
			dataset, EM, k, res.LocalKAnon, res.LocalKK, res.FullDomain)
		for i, g := range []*table.GenTable{gK, gF, gKK, gFD} {
			name := queryReleases[i]
			acc := workload.Evaluate(ds.Table, g, ds.Hiers, queries)
			qs = append(qs, QueryResult{Dataset: dataset, K: k, Algorithm: name, Accuracy: acc})
			c.logf("done %-8s %-2s queries:%-10s k=%-3d meanerr=%.4f", dataset, EM, name, k, acc.MeanRelError)
		}
	}
	return recs, qs, nil
}

// FormatRecoding renders E15.
func FormatRecoding(results []RecodingResult) string {
	var b strings.Builder
	b.WriteString("LOCAL vs GLOBAL RECODING (E15)\n")
	fmt.Fprintf(&b, "%-6s %-3s %-4s %12s %12s %12s %10s %s\n",
		"data", "msr", "k", "local k-anon", "local (k,k)", "full-domain", "saving", "levels")
	for _, r := range results {
		saving := 0.0
		if r.FullDomain > 0 {
			saving = (r.FullDomain - r.LocalKK) / r.FullDomain * 100
		}
		fmt.Fprintf(&b, "%-6s %-3s %-4d %12.4f %12.4f %12.4f %9.1f%% %v\n",
			r.Dataset, r.Measure, r.K, r.LocalKAnon, r.LocalKK, r.FullDomain, saving, r.Levels)
	}
	return b.String()
}

// QueryResult is one row of the workload-accuracy experiment (E16, built
// by RunRecoding): the relative error of COUNT queries answered from each
// release.
type QueryResult struct {
	Dataset   string
	K         int
	Algorithm string
	Accuracy  workload.Accuracy
}

// FormatQueries renders E16.
func FormatQueries(results []QueryResult) string {
	var b strings.Builder
	b.WriteString("WORKLOAD ACCURACY (E16) — relative error of COUNT queries\n")
	fmt.Fprintf(&b, "%-6s %-4s %-12s %12s %12s %12s\n",
		"data", "k", "release", "mean", "median", "max-abs")
	for _, r := range results {
		fmt.Fprintf(&b, "%-6s %-4d %-12s %12.4f %12.4f %12.1f\n",
			r.Dataset, r.K, r.Algorithm,
			r.Accuracy.MeanRelError, r.Accuracy.MedianRelError, r.Accuracy.MaxAbsError)
	}
	return b.String()
}

// ScaleResult is one row of the scalability experiment (E19): runtime and
// loss of the plain agglomerative algorithm against the partitioned
// variant (Section VII's "more scalable algorithms") as n grows.
type ScaleResult struct {
	N         int
	Algorithm string
	Millis    int64
	Loss      float64
}

// ScaleRunKey identifies one partitioned scale run for shard-granular
// checkpointing (Config.OnShard / Config.CompletedShards).
func ScaleRunKey(n, k, maxChunk int, seed int64) string {
	return fmt.Sprintf("scale|n=%d|k=%d|chunk=%d|seed=%d", n, k, maxChunk, seed)
}

// RunScale runs E19 on Adult-like data for the given sizes. The plain
// algorithm is skipped above skipPlainAbove records to keep the experiment
// bounded. The partitioned runs run each shard once, contained (DESIGN.md
// §14); with Config.OnShard/CompletedShards wired a killed run resumes at
// shard granularity. Under Config.Deterministic the wall-clock
// columns are zeroed so resumed and uninterrupted suites serialize
// byte-identically.
func (c Config) RunScale(sizes []int, k, maxChunk, skipPlainAbove int) ([]ScaleResult, error) {
	var out []ScaleResult
	for _, n := range sizes {
		ds := datagenAdult(n, c.Seed)
		s, meas, err := newSpace(ds, EM)
		if err != nil {
			return nil, err
		}
		if n <= skipPlainAbove {
			start := nowMillis()
			g, err := core.KAnonymizeCtx(c.Ctx, s, ds.Table, cluster.AggloOptions{K: k, Workers: c.Workers})
			if err != nil {
				return nil, err
			}
			out = append(out, ScaleResult{N: n, Algorithm: "agglomerative",
				Millis: c.millisSince(start), Loss: loss.TableLoss(meas, g)})
		}
		key := ScaleRunKey(n, k, maxChunk, c.Seed)
		popt := core.PartitionedOptions{K: k, MaxChunk: maxChunk, Workers: c.Workers}
		if c.OnShard != nil {
			onShard := c.OnShard
			popt.OnShard = func(ck core.ShardCheckpoint) { onShard(key, ck) }
		}
		if len(c.CompletedShards[key]) > 0 {
			popt.CompletedShards = c.CompletedShards[key]
		}
		start := nowMillis()
		g, _, _, err := core.KAnonymizePartitionedReportCtx(c.Ctx, s, ds.Table, popt)
		if err != nil {
			return nil, err
		}
		out = append(out, ScaleResult{N: n, Algorithm: "partitioned",
			Millis: c.millisSince(start), Loss: loss.TableLoss(meas, g)})
		c.logf("done scale n=%-6d", n)
	}
	return out, nil
}

// millisSince is nowMillis()-start, or 0 under Deterministic (wall clocks
// must not leak into checkpoint-comparable output).
func (c Config) millisSince(start int64) int64 {
	if c.Deterministic {
		return 0
	}
	return nowMillis() - start
}

// FormatScale renders E19.
func FormatScale(results []ScaleResult) string {
	var b strings.Builder
	b.WriteString("SCALABILITY (E19) — plain vs partitioned agglomerative, Adult-like data\n")
	fmt.Fprintf(&b, "%-8s %-16s %10s %12s\n", "n", "algorithm", "time(ms)", "loss")
	for _, r := range results {
		fmt.Fprintf(&b, "%-8d %-16s %10d %12.4f\n", r.N, r.Algorithm, r.Millis, r.Loss)
	}
	return b.String()
}

// DiversityResult is one row of the ℓ-diversity extension experiment
// (E17): the cost of layering distinct ℓ-diversity on the anonymizations.
type DiversityResult struct {
	Dataset string
	K, L    int

	PlainKAnonLoss, DiverseKAnonLoss float64
	PlainKKLoss, DiverseKKLoss       float64
	// PlainMinDiversity is the candidate diversity the plain (k,k) release
	// happens to achieve without being asked.
	PlainMinDiversity int
}

// RunDiversity runs E17 on one dataset under the entropy measure.
func (c Config) RunDiversity(dataset string, l int) ([]DiversityResult, error) {
	ds, err := c.dataset(dataset)
	if err != nil {
		return nil, err
	}
	s, meas, err := newSpace(ds, EM)
	if err != nil {
		return nil, err
	}
	var out []DiversityResult
	for _, k := range c.Ks {
		res := DiversityResult{Dataset: dataset, K: k, L: l}
		gP, err := core.KAnonymizeCtx(c.Ctx, s, ds.Table, cluster.AggloOptions{K: k, Workers: c.Workers})
		if err != nil {
			return nil, err
		}
		res.PlainKAnonLoss = loss.TableLoss(meas, gP)
		diverse := []cluster.Constraint{cluster.DistinctLDiversity(l)}
		gD, err := core.KAnonymizeCtx(c.Ctx, s, ds.Table, cluster.AggloOptions{K: k, Workers: c.Workers, Constraints: diverse, Sensitive: ds.Sensitive})
		if err != nil {
			return nil, err
		}
		res.DiverseKAnonLoss = loss.TableLoss(meas, gD)
		gKK, err := core.KKAnonymizeCtx(c.Ctx, s, ds.Table, k, core.K1ByExpansion, nil, nil, c.Workers)
		if err != nil {
			return nil, err
		}
		res.PlainKKLoss = loss.TableLoss(meas, gKK)
		res.PlainMinDiversity, err = anonymity.MinCandidateDiversity(s, ds.Table, gKK, ds.Sensitive)
		if err != nil {
			return nil, err
		}
		gKKD, err := core.KKAnonymizeCtx(c.Ctx, s, ds.Table, k, core.K1ByExpansion, diverse, ds.Sensitive, c.Workers)
		if err != nil {
			return nil, err
		}
		res.DiverseKKLoss = loss.TableLoss(meas, gKKD)
		c.logf("done %-8s %-2s diversity l=%d     k=%-3d kanon=%.4f/%.4f kk=%.4f/%.4f",
			dataset, "EM", l, k, res.PlainKAnonLoss, res.DiverseKAnonLoss, res.PlainKKLoss, res.DiverseKKLoss)
		out = append(out, res)
	}
	return out, nil
}

// FormatDiversity renders E17.
func FormatDiversity(results []DiversityResult) string {
	var b strings.Builder
	b.WriteString("ℓ-DIVERSITY EXTENSION (E17) — entropy loss, plain vs diversity-constrained\n")
	fmt.Fprintf(&b, "%-6s %-4s %-3s %12s %12s %12s %12s %10s\n",
		"data", "k", "l", "k-anon", "+diverse", "(k,k)", "+diverse", "free-div")
	for _, r := range results {
		fmt.Fprintf(&b, "%-6s %-4d %-3d %12.4f %12.4f %12.4f %12.4f %10d\n",
			r.Dataset, r.K, r.L, r.PlainKAnonLoss, r.DiverseKAnonLoss,
			r.PlainKKLoss, r.DiverseKKLoss, r.PlainMinDiversity)
	}
	return b.String()
}
