// Package kanon is a library for k-type anonymization of tabular microdata,
// implementing the algorithms and anonymity notions of "k-Anonymization
// Revisited" (Gionis, Mazza, Tassa; ICDE 2008).
//
// The paper relaxes classical k-anonymity through the consistency relation
// between original and generalized records, yielding four additional
// notions — (1,k)-, (k,1)-, (k,k)- and global (1,k)-anonymity — that admit
// strictly higher-utility generalizations. kanon provides:
//
//   - agglomerative k-anonymization under local recoding (Algorithms 1–2
//     with the four inter-cluster distances of the paper),
//   - the forest algorithm of Aggarwal et al. as a baseline,
//   - (k,k)-anonymization (Algorithms 3/4 coupled with Algorithm 5),
//   - global (1,k)-anonymization via bipartite perfect-matching tests
//     (Algorithm 6),
//   - entropy, LM and tree information-loss measures, and
//   - verifiers for every notion, plus distinct/entropy ℓ-diversity.
//
// A minimal use:
//
//	t, _ := kanon.LoadCSV(f, true)
//	_ = t.SetHierarchiesJSON(specFile)
//	res, _ := kanon.Anonymize(t, kanon.Options{K: 10, Notion: kanon.NotionKK})
//	_ = res.WriteCSV(os.Stdout)
package kanon

import (
	"context"
	"fmt"
	"io"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/dataio"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/resilient"
	"kanon/internal/risk"
	"kanon/internal/table"
)

// Notion selects the anonymity guarantee the anonymizer must establish.
type Notion string

// The supported anonymity notions. NotionK is classical k-anonymity
// (Definition 4.1); NotionKK is (k,k)-anonymity (Definition 4.4), the
// paper's recommended practical choice; NotionGlobal1K is global
// (1,k)-anonymity (Definition 4.6), as secure as k-anonymity even against
// an adversary who knows exactly who is in the database.
const (
	NotionK        Notion = "k"
	NotionKK       Notion = "kk"
	NotionGlobal1K Notion = "global"
)

// MeasureName selects the information-loss measure.
type MeasureName string

// The supported measures: the entropy measure ΠE of Definition 4.3, its
// monotone variant from Gionis–Tassa (ESA'07), the LM measure of eq. (4),
// the tree measure of Aggarwal et al., and the suppression count of
// Meyerson–Williams.
const (
	MeasureEntropy         MeasureName = "entropy"
	MeasureMonotoneEntropy MeasureName = "monotone-entropy"
	MeasureLM              MeasureName = "lm"
	MeasureTree            MeasureName = "tree"
	MeasureSuppression     MeasureName = "suppression"
)

// buildMeasure constructs the named measure for a table's hierarchies.
func buildMeasure(t *Table, name MeasureName) (loss.Measure, error) {
	switch name {
	case MeasureEntropy:
		return loss.NewEntropy(t.tbl, t.hiers)
	case MeasureMonotoneEntropy:
		return loss.NewMonotoneEntropy(t.tbl, t.hiers)
	case MeasureLM:
		return loss.NewLM(t.hiers), nil
	case MeasureTree:
		return loss.NewTree(t.hiers), nil
	case MeasureSuppression:
		return loss.NewSuppression(t.hiers), nil
	default:
		return nil, fmt.Errorf("kanon: unknown measure %q", name)
	}
}

// Table is a dataset prepared for anonymization: public records plus one
// generalization hierarchy per attribute (trivial suppress-only hierarchies
// until configured otherwise).
type Table struct {
	tbl   *table.Table
	hiers []*hierarchy.Hierarchy

	sensitive       []int
	sensitiveName   string
	sensitiveValues []string
}

// LoadCSV reads a table of public attributes from CSV. When header is true
// the first row names the attributes. All hierarchies start trivial
// (each value may only be kept or fully suppressed); install richer ones
// with SetHierarchiesJSON.
func LoadCSV(r io.Reader, header bool) (*Table, error) {
	return LoadCSVLimit(r, header, 0)
}

// LoadCSVLimit is LoadCSV with a record cap: a stream with more than
// maxRecords data rows fails fast with a typed error instead of feeding a
// runaway input to the (quadratic) anonymizers. maxRecords ≤ 0 means
// unlimited.
func LoadCSVLimit(r io.Reader, header bool, maxRecords int) (*Table, error) {
	tbl, err := dataio.ReadCSVOptions(r, dataio.ReadOptions{Header: header, MaxRecords: maxRecords})
	if err != nil {
		return nil, err
	}
	hiers := make([]*hierarchy.Hierarchy, tbl.Schema.NumAttrs())
	for j, a := range tbl.Schema.Attrs {
		hiers[j] = hierarchy.Flat(a.Size())
	}
	return &Table{tbl: tbl, hiers: hiers}, nil
}

// SetHierarchiesJSON installs generalization hierarchies from a JSON
// specification (see internal/dataio.HierarchySpec for the format):
//
//	{"attributes": [{"attribute": "age",
//	                 "subsets": [{"label": "30s", "values": ["30","31",...]}]}]}
//
// Attributes absent from the spec keep the trivial hierarchy.
func (t *Table) SetHierarchiesJSON(r io.Reader) error {
	hiers, err := dataio.LoadHierarchies(r, t.tbl.Schema)
	if err != nil {
		return err
	}
	t.hiers = hiers
	return nil
}

// AutoHierarchies infers generalization hierarchies without a spec:
// integer-valued attributes get interval hierarchies over their numeric
// order (bucket widths doubling from baseWidth), everything else keeps
// the trivial keep-or-suppress hierarchy. A quick default before writing
// semantic hierarchies by hand.
func (t *Table) AutoHierarchies(baseWidth int) error {
	hiers, err := dataio.AutoHierarchies(t.tbl, baseWidth)
	if err != nil {
		return err
	}
	t.hiers = hiers
	return nil
}

// ART returns the paper's artificial benchmark dataset with n records
// (Section VI), generated deterministically from seed.
func ART(n int, seed int64) *Table { return fromDataset(datagen.ART(n, seed)) }

// Adult returns the synthetic Adult-census benchmark dataset (the paper's
// ADT) with n records.
func Adult(n int, seed int64) *Table { return fromDataset(datagen.Adult(n, seed)) }

// CMC returns the synthetic contraceptive-survey benchmark dataset (the
// paper's CMC) with n records.
func CMC(n int, seed int64) *Table { return fromDataset(datagen.CMC(n, seed)) }

func fromDataset(ds *datagen.Dataset) *Table {
	return &Table{
		tbl:             ds.Table,
		hiers:           ds.Hiers,
		sensitive:       ds.Sensitive,
		sensitiveName:   ds.SensitiveName,
		sensitiveValues: ds.SensitiveValues,
	}
}

// Len returns the number of records.
func (t *Table) Len() int { return t.tbl.Len() }

// NumAttrs returns the number of public attributes.
func (t *Table) NumAttrs() int { return t.tbl.Schema.NumAttrs() }

// AttrNames returns the public attribute names in schema order.
func (t *Table) AttrNames() []string {
	names := make([]string, t.tbl.Schema.NumAttrs())
	for j, a := range t.tbl.Schema.Attrs {
		names[j] = a.Name
	}
	return names
}

// Row returns record i as string values.
func (t *Table) Row(i int) []string { return t.tbl.Strings(i) }

// SensitiveValue returns the sensitive attribute of record i as a string,
// for the built-in benchmark datasets ("" when no sensitive attribute is
// attached).
func (t *Table) SensitiveValue(i int) string {
	if t.sensitive == nil {
		return ""
	}
	return t.sensitiveValues[t.sensitive[i]]
}

// SetSensitive attaches a sensitive (private) attribute to the table: one
// value per record, in record order. The sensitive attribute is never part
// of the anonymized schema; it powers the Diversity option, ℓ-diversity
// checks, and candidate-diversity reporting.
func (t *Table) SetSensitive(name string, values []string) error {
	if len(values) != t.tbl.Len() {
		return fmt.Errorf("kanon: %d sensitive values for %d records", len(values), t.tbl.Len())
	}
	index := make(map[string]int)
	ids := make([]int, len(values))
	var domain []string
	for i, v := range values {
		id, ok := index[v]
		if !ok {
			id = len(domain)
			index[v] = id
			domain = append(domain, v)
		}
		ids[i] = id
	}
	t.sensitive = ids
	t.sensitiveName = name
	t.sensitiveValues = domain
	return nil
}

// WriteCSV writes the original table as CSV.
func (t *Table) WriteCSV(w io.Writer) error { return dataio.WriteCSV(w, t.tbl) }

// Options configures Anonymize.
type Options struct {
	// K is the anonymity parameter; required, ≥ 2 for any useful guarantee.
	K int
	// Notion is the guarantee to establish; default NotionKK.
	Notion Notion
	// Measure is the loss measure to optimize; default MeasureEntropy.
	Measure MeasureName
	// Distance names the agglomerative inter-cluster distance for NotionK
	// ("d1".."d4", "nc"); default "d3". Ignored for the other notions.
	Distance string
	// Modified selects the modified agglomerative algorithm (Algorithm 2)
	// for NotionK.
	Modified bool
	// UseNearest seeds the (k,k) pipeline with Algorithm 3 (nearest
	// neighbours) instead of the default Algorithm 4 (greedy expansion).
	UseNearest bool
	// Forest replaces the agglomerative k-anonymizer with the Aggarwal et
	// al. forest baseline for NotionK.
	Forest bool
	// FullDomain replaces local recoding with the optimal full-domain
	// (global-recoding) generalization for NotionK — the Incognito-style
	// baseline the paper's Section II contrasts local recoding with.
	FullDomain bool
	// Diversity, when ≥ 2, additionally enforces distinct ℓ-diversity of
	// the sensitive attribute: for NotionK every equivalence class, and for
	// NotionKK every record's candidate set, carries at least Diversity
	// distinct sensitive values. The table must have a sensitive attribute
	// (the built-in benchmark datasets do; SetSensitive attaches one).
	// Diversity is sugar for a single DistinctDiversity constraint; use
	// Constraints for the other notions. Setting both is rejected.
	Diversity int
	// Constraints enforces privacy constraints on the sensitive attribute —
	// DistinctDiversity, EntropyDiversity, RecursiveDiversity, Closeness —
	// on top of the anonymity notion: for NotionK every equivalence class,
	// and for NotionKK every record's candidate set, must satisfy each of
	// them. The table must have a sensitive attribute. Supported for
	// NotionK (agglomerative) and NotionKK; audit the release with
	// Result.ConstraintReport.
	Constraints []Constraint
	// MaxChunk, when > 0, switches NotionK to the scalable partitioned
	// agglomerative algorithm: records are pre-partitioned along the
	// hierarchies into chunks of at most MaxChunk before clustering,
	// trading a small utility penalty for near-linear scaling. Requires
	// NotionK without Forest or FullDomain.
	MaxChunk int
	// Workers caps the worker pools of the parallel anonymizers: 1 forces
	// the sequential paths, 0 (the default) sizes the pools to the machine.
	// The output is identical at any worker count.
	Workers int
	// Observer, when non-nil, receives the run's structured event stream
	// (phase boundaries, merges, scans, augmentations, chunks — see the
	// Event* constants). It must be safe for concurrent use: the parallel
	// engines emit events from their pool workers. Independently of any
	// Observer, every run's aggregated metrics are available from
	// Result.Stats().
	Observer Observer
	// OnShard, when non-nil, is invoked after each partitioned shard
	// completes, with a checkpoint from which the shard can be restored.
	// Persist these (e.g. as JSONL) to make a failed or killed run
	// resumable at shard granularity. Requires MaxChunk > 0.
	OnShard func(ShardCheckpoint)
	// CompletedShards seeds a partitioned run with shard checkpoints from
	// a previous (failed or killed) run: shards whose checkpoint signature
	// matches the current parameters and records are restored
	// byte-identically instead of recomputed; stale checkpoints are
	// ignored. Requires MaxChunk > 0.
	CompletedShards []ShardCheckpoint
}

// ShardCheckpoint is the persistable record of one completed partitioned
// shard: the shard index, a signature binding it to the run parameters and
// record set, and the shard's clusters as record-index sets. Marshal as
// JSON for persistence; feed back via Options.CompletedShards to resume.
type ShardCheckpoint struct {
	Shard    int     `json:"shard"`
	Sig      uint64  `json:"sig"`
	Clusters [][]int `json:"clusters"`
}

// Result is an anonymized table plus the context needed to inspect it.
type Result struct {
	table      *Table
	gen        *table.GenTable
	space      *cluster.Space
	measure    loss.Measure
	opt        Options
	stats      RunStats
	resilience *ResilienceReport
}

// Stats returns the run's unified observability statistics: per-phase wall
// times, counter totals (merges, distance evaluations, scans, widening
// steps, chunks, …), peak gauges and scheduler gauges. Counter totals and
// peaks are identical at every worker count for the same input; wall times
// and the Sched gauges are the timing-dependent remainder.
func (r *Result) Stats() RunStats { return r.stats }

// ShardOutcome summarizes one shard of a partitioned run. Each shard runs
// once; a shard that fails stops the run with an error and no Result, so
// every shard of a returned report either ran or was restored.
type ShardOutcome struct {
	// Shard is the shard's index; Records its record count.
	Shard   int
	Records int
	// FromCheckpoint marks a shard restored from Options.CompletedShards.
	FromCheckpoint bool
}

// ResilienceReport is the shard supervisor's report for a completed
// partitioned run. It is deterministic: same input, same checkpoints, same
// report at any worker count.
type ResilienceReport struct {
	// Shards holds one outcome per shard, in shard order.
	Shards []ShardOutcome
	// CheckpointHits is the number of shards restored from checkpoints
	// (also the resilient.checkpoint_hits counter in Stats()).
	CheckpointHits int
}

// Clean reports whether every shard was computed in this run, none
// restored from a checkpoint.
func (r *ResilienceReport) Clean() bool {
	return r != nil && r.CheckpointHits == 0
}

// Resilience returns the shard supervisor's report for a partitioned run
// (NotionK with MaxChunk > 0), and nil for every other pipeline.
func (r *Result) Resilience() *ResilienceReport { return r.resilience }

// facadeResilience converts the internal RunReport to the facade mirror.
func facadeResilience(rep *resilient.RunReport) *ResilienceReport {
	if rep == nil {
		return nil
	}
	out := &ResilienceReport{
		Shards:         make([]ShardOutcome, len(rep.Shards)),
		CheckpointHits: rep.CheckpointHits,
	}
	for i, s := range rep.Shards {
		out.Shards[i] = ShardOutcome{Shard: s.Shard, Records: s.Records, FromCheckpoint: s.FromCheckpoint}
	}
	return out
}

// Anonymize generalizes the table until it satisfies the requested notion,
// minimizing the requested information-loss measure heuristically. It is
// AnonymizeContext under context.Background().
func Anonymize(t *Table, opt Options) (*Result, error) {
	return AnonymizeContext(context.Background(), t, opt) //kanon:allow ctxflow -- Anonymize is the documented no-context convenience wrapper
}

// AnonymizeContext is Anonymize under a context: every pipeline checks for
// cancellation at its scan/merge boundaries, and once ctx is done the call
// returns ctx.Err() promptly with no partial output.
//
// Nil-context handling is defined here, once, for the whole stack: a nil
// ctx is treated as context.Background(), i.e. cancellation disabled. The
// internal entry points share that convention through a single check
// (internal/par.Done), so passing nil to any layer is always equivalent to
// passing a context that is never done.
func AnonymizeContext(ctx context.Context, t *Table, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background() //kanon:allow ctxflow -- THE canonical nil-ctx definition site (see doc comment above)
	}
	if opt.Notion == "" {
		opt.Notion = NotionKK
	}
	if opt.Measure == "" {
		opt.Measure = MeasureEntropy
	}
	cons := effectiveConstraints(opt)
	if len(cons) > 0 && t.sensitive == nil {
		if opt.Diversity >= 2 {
			return nil, optErr("Diversity", opt.Diversity, "requires a table with a sensitive attribute")
		}
		return nil, optErr("Constraints", constraintString(opt.Constraints), "requires a table with a sensitive attribute")
	}
	clusterCons, err := buildConstraints(t, cons)
	if err != nil {
		return nil, err
	}
	m, err := buildMeasure(t, opt.Measure)
	if err != nil {
		return nil, err
	}
	s, err := cluster.NewSpace(t.hiers, m)
	if err != nil {
		return nil, err
	}

	// Every run aggregates its own metrics (for Result.Stats()); a
	// user-supplied Observer additionally sees the raw event stream.
	met := obs.NewMetrics()
	ctx = obs.WithRun(ctx, obs.NewRun(obs.Tee(met, opt.Observer)))

	res := &Result{table: t, space: s, measure: m, opt: opt}
	alg := core.K1ByExpansion
	if opt.UseNearest {
		alg = core.K1ByNearest
	}
	// A nil distance selects D3 in both agglomerative entries.
	dist := cluster.DistanceByName(opt.Distance)
	switch {
	case opt.Notion != NotionK:
		// NotionKK, and NotionGlobal1K's (k,k) stage; Validate rejects
		// constraints on the latter.
		res.gen, err = core.KKAnonymizeCtx(ctx, s, t.tbl, opt.K, alg, clusterCons, t.sensitive, opt.Workers)
		if err == nil && opt.Notion == NotionGlobal1K {
			res.gen, _, err = core.MakeGlobal1KCtx(ctx, s, t.tbl, res.gen, opt.K)
		}
	case opt.Forest:
		res.gen, _, err = core.ForestCtx(ctx, s, t.tbl, opt.K)
	case opt.FullDomain:
		res.gen, _, err = core.FullDomainCtx(ctx, s, t.tbl, opt.K)
	case opt.MaxChunk > 0:
		// Validate rejects constraints with MaxChunk.
		popt := core.PartitionedOptions{
			K: opt.K, Distance: dist, Modified: opt.Modified, MaxChunk: opt.MaxChunk,
			Workers: opt.Workers,
		}
		if opt.OnShard != nil {
			onShard := opt.OnShard
			popt.OnShard = func(ck resilient.ShardCheckpoint) {
				onShard(ShardCheckpoint(ck))
			}
		}
		if len(opt.CompletedShards) > 0 {
			popt.CompletedShards = make(map[int]resilient.ShardCheckpoint, len(opt.CompletedShards))
			for _, ck := range opt.CompletedShards {
				popt.CompletedShards[ck.Shard] = resilient.ShardCheckpoint(ck)
			}
		}
		var rep *resilient.RunReport
		res.gen, _, rep, err = core.KAnonymizePartitionedReportCtx(ctx, s, t.tbl, popt)
		res.resilience = facadeResilience(rep)
	default:
		res.gen, _, _, err = core.KAnonymizeStatsCtx(ctx, s, t.tbl, cluster.AggloOptions{
			K: opt.K, Distance: dist, Modified: opt.Modified, Workers: opt.Workers,
			Constraints: clusterCons, Sensitive: t.sensitive,
		})
	}
	if err != nil {
		return nil, err
	}
	res.stats = met.Snapshot()
	res.stats.Notion = string(opt.Notion)
	res.stats.Workers = par.Workers(opt.Workers)
	res.stats.Records = t.Len()
	return res, nil
}

// Loss returns the information loss Π(D, g(D)) of the result under the
// measure it was optimized for.
func (r *Result) Loss() float64 { return loss.TableLoss(r.measure, r.gen) }

// LossUnder returns the information loss under another measure.
func (r *Result) LossUnder(name MeasureName) (float64, error) {
	m, err := buildMeasure(r.table, name)
	if err != nil {
		return 0, err
	}
	return loss.TableLoss(m, r.gen), nil
}

// CandidateDiversity returns the minimum, over all original records, of
// the number of distinct sensitive values among the released records
// consistent with it — the first adversary's residual uncertainty about
// the target's sensitive attribute (≥ Options.Diversity when that was
// requested).
func (r *Result) CandidateDiversity() (int, error) {
	if r.table.sensitive == nil {
		return 0, fmt.Errorf("kanon: table has no sensitive attribute")
	}
	return core.MinCandidateDiversity(r.space, r.table.tbl, r.gen, r.table.sensitive)
}

// Row returns generalized record i rendered as strings.
func (r *Result) Row(i int) []string {
	out := make([]string, len(r.gen.Records[i]))
	for j, node := range r.gen.Records[i] {
		out[j] = dataio.GenValueString(r.gen.Schema.Attrs[j], r.table.hiers[j], node)
	}
	return out
}

// Len returns the number of generalized records.
func (r *Result) Len() int { return r.gen.Len() }

// WriteCSV writes the generalized table as CSV.
func (r *Result) WriteCSV(w io.Writer) error {
	return dataio.WriteGenCSV(w, r.gen, r.table.hiers)
}

// Discernibility returns the DM metric of the result (Σ of squared
// equivalence-class sizes).
func (r *Result) Discernibility() int { return loss.Discernibility(r.gen) }

// Verify checks the result against every anonymity notion for the given k
// and returns the report.
func (r *Result) Verify(k int) anonymity.Report {
	return anonymity.Check(r.space, r.table.tbl, r.gen, k)
}

// IsDistinctLDiverse reports whether the result's equivalence classes each
// contain at least l distinct sensitive values (only for tables carrying a
// sensitive attribute).
func (r *Result) IsDistinctLDiverse(l int) (bool, error) {
	if r.table.sensitive == nil {
		return false, fmt.Errorf("kanon: table has no sensitive attribute")
	}
	return anonymity.IsDistinctLDiverse(r.gen, r.table.sensitive, l)
}

// GroupSizes returns the sorted equivalence-class sizes of the generalized
// table.
func (r *Result) GroupSizes() []int { return r.gen.GroupSizes() }

// RiskSummary reports standard re-identification risk metrics for the
// release under a given adversary model.
type RiskSummary struct {
	// Journalist is the maximum per-record re-identification probability.
	Journalist float64
	// Marketer is the expected fraction of records an indiscriminate
	// linker re-identifies.
	Marketer float64
	// AtRisk counts records with fewer than k candidates.
	AtRisk int
}

// Risk computes re-identification risk for the release. model selects the
// adversary: "class" (equivalence classes, the classical view),
// "neighbors" (the paper's first adversary) or "matches" (the second
// adversary, perfect-matching analysis). k sets the AtRisk threshold.
func (r *Result) Risk(model string, k int) (RiskSummary, error) {
	var m risk.Model
	switch model {
	case "class":
		m = risk.ByClass
	case "neighbors":
		m = risk.ByNeighbors
	case "matches":
		m = risk.ByMatches
	default:
		return RiskSummary{}, fmt.Errorf("kanon: unknown risk model %q", model)
	}
	rep, err := risk.Assess(r.space, r.table.tbl, r.gen, m)
	if err != nil {
		return RiskSummary{}, err
	}
	return RiskSummary{
		Journalist: rep.Journalist,
		Marketer:   rep.Marketer,
		AtRisk:     rep.AtRiskCount(k),
	}, nil
}

// AttackVector summarizes one attack of the adversarial evaluation suite.
type AttackVector struct {
	// Attack names the attack: "matching" (the paper's second adversary),
	// "refinement" (candidate pruning from the release and hierarchies
	// alone) or "intersection" (repeated overlapping releases).
	Attack string
	// Vulnerable counts individuals whose candidate set fell below k, and
	// VulnerablePct is that count as a percentage of the population.
	Vulnerable    int
	VulnerablePct float64
	// MinCandidates is the smallest candidate set any individual retained.
	MinCandidates int
	// Exposed counts individuals whose sensitive value is disclosed
	// outright (homogeneous candidate set); zero without a sensitive
	// attribute.
	Exposed int
}

// AttackSummary is the combined adversarial evaluation of a release: three
// attacks plus the headline percentage of the population vulnerable to at
// least one of them.
type AttackSummary struct {
	K            int
	Records      int
	Matching     AttackVector
	Refinement   AttackVector
	Intersection AttackVector
	// VulnerableUnion and Score aggregate across attacks: the number and
	// percentage of individuals vulnerable to at least one attack.
	VulnerableUnion int
	Score           float64
}

// AttackEvaluation runs the full adversarial suite against the release:
// the matching attack of the paper's second adversary, the
// no-auxiliary-information refinement attack, and the repeated-release
// intersection attack over overlapping population windows. k sets the
// vulnerability threshold (an individual is vulnerable when an attack
// leaves it fewer than k candidates). The evaluation is deterministic.
func (r *Result) AttackEvaluation(k int) (AttackSummary, error) {
	rep, err := risk.EvaluateAttacks(r.space, r.table.tbl, r.gen, k, r.table.sensitive)
	if err != nil {
		return AttackSummary{}, err
	}
	vec := func(v risk.AttackVector) AttackVector {
		return AttackVector{
			Attack: v.Attack, Vulnerable: v.Vulnerable, VulnerablePct: v.VulnerablePct,
			MinCandidates: v.MinCandidates, Exposed: v.Exposed,
		}
	}
	return AttackSummary{
		K: rep.K, Records: rep.Records,
		Matching:     vec(rep.Matching),
		Refinement:   vec(rep.Refinement),
		Intersection: vec(rep.Intersection),

		VulnerableUnion: rep.VulnerableUnion,
		Score:           rep.Score,
	}, nil
}
