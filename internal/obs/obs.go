// Package obs is the zero-dependency observability layer of the
// anonymization stack. Every pipeline — the agglomerative engines
// (internal/cluster), the (k,1)/(k,k)/global/forest/full-domain/partitioned
// pipelines (internal/core) and the experiment driver
// (internal/experiment) — reports its phases, counters, peak gauges and
// scheduler gauges through a Recorder.
//
// The layer has three parts:
//
//   - the event model: Event values carrying a Kind, the owning phase or
//     the counter name, a count payload and a monotonic timestamp,
//     delivered to a caller-supplied Recorder;
//   - the Metrics aggregator (metrics.go): a concurrency-safe Recorder
//     folding the event stream into per-phase wall time, counter totals and
//     peak gauges, rendered as JSON or an expvar variable;
//   - profiling hooks (profile.go): optional CPU/heap profile and
//     runtime/trace capture bracketing a run, plus a TraceRecorder that
//     opens a runtime/trace region per phase.
//
// # Threading and the disabled path
//
// Observability is carried through context.Context: With(ctx, recorder)
// arms a run, and the pipelines call From(ctx) once at entry to obtain the
// run handle. A nil *Run is the disabled state — every method on it is a
// nil-check no-op that performs zero allocations and never reads the clock,
// so uninstrumented runs cost nothing measurable (see the overhead guard in
// the cluster benchmarks).
//
// # Emission
//
// Pipelines emit on their driving goroutine only: phases bracket stages,
// and each counter and peak is reported once per run from the tallies the
// pipeline's loops already keep (per span where they run on a worker
// pool), on every exit path. No event comes from a pool worker or from a
// per-record, per-merge or per-vector loop, so the event stream of a run
// is the same sequence at every worker count, and its length depends on
// the pipeline's stages, not on the number of records. Counter totals and
// peaks are identical at every worker count, because the engines shard
// work without changing it. Scheduler gauges (KindSched) are the one
// exception: they describe the pool's dynamic behaviour and legitimately
// vary between runs. A Recorder must still be safe for concurrent use:
// separate pipelines may share one.
package obs

import (
	"context"
	"time"
)

// Kind classifies a run event.
type Kind uint8

// The event taxonomy (DESIGN.md §10).
const (
	// KindPhaseStart and KindPhaseEnd bracket a named pipeline phase on the
	// driving goroutine.
	KindPhaseStart Kind = iota
	KindPhaseEnd
	// KindCounter is a named counter contribution; Name carries the counter
	// and N the amount to add.
	KindCounter
	// KindPeak is a named gauge observation aggregated by maximum.
	KindPeak
	// KindSched is a named scheduler gauge (pool occupancy, span and task
	// counts); excluded from the worker-count-invariant counter totals.
	KindSched
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPhaseStart:
		return "phase-start"
	case KindPhaseEnd:
		return "phase-end"
	case KindCounter:
		return "counter"
	case KindPeak:
		return "peak"
	case KindSched:
		return "sched"
	default:
		return "unknown"
	}
}

// Counter and gauge names emitted by the flat distance kernel of the
// agglomerative engine (internal/cluster, DESIGN.md §12). All four are
// worker-count invariant: table hits are derived from the deterministic
// distance-evaluation count, fallback walks are counted where they happen
// (a fixed number per anchor strip fill, and the anchors are fixed by the
// algorithm, not the sharding), and the arena is mutated only on the
// engine's driving goroutine.
const (
	// CounterKernelTableHits counts per-attribute LCA costs read from the
	// precomputed fused tables — through the anchor's cost strip in the
	// pair passes: one per tabled attribute per distance evaluation
	// outside the Algorithm 2 shrink.
	CounterKernelTableHits = "cluster.kernel.table_hits"
	// CounterKernelFallbackWalks counts the LCA walk-ups performed for
	// attributes whose hierarchy exceeded the LCA-table memory budget: one
	// per node of such an attribute each time an anchor's cost strip is
	// filled, plus one per such attribute in the per-merge closure, shrink
	// and absorb paths.
	CounterKernelFallbackWalks = "cluster.kernel.fallback_walks"
	// CounterKernelArenaReuses counts closure-arena slots recycled from
	// killed clusters by later pushes.
	CounterKernelArenaReuses = "cluster.kernel.arena_reuses"
	// PeakKernelArenaRows is the closure arena's high-water row count
	// (KindPeak): the maximum number of live-cluster closures it held.
	PeakKernelArenaRows = "cluster.kernel.arena_rows"
)

// Counter names emitted by the lazy NN-heap merge selection of the
// kernel-mode engine (internal/cluster/lazynn.go, DESIGN.md §17). All are
// maintained on the engine's driving goroutine over quantities that depend
// only on the clustering trajectory, never on work sharding, so they are
// worker-count invariant.
const (
	// CounterHeapPushes counts candidate entries pushed onto the selection
	// heap: the initial seed plus one push per nearest-neighbour update.
	CounterHeapPushes = "cluster.heap.pushes"
	// CounterStalePops counts heap entries discarded at pop time because
	// their generation tag no longer matched the cluster's.
	CounterStalePops = "cluster.heap.stale_pops"
	// CounterDeadNNRescans counts lazy pop-time full rescans: a fresh entry
	// whose cached neighbour and runner-up had both died.
	CounterDeadNNRescans = "cluster.heap.dead_nn_rescans"
	// CounterTilesScanned counts the fixed-size candidate tiles walked by
	// the tiled initial build, the newborn-offer pass and rescans.
	CounterTilesScanned = "cluster.heap.tiles_scanned"
	// CounterInitBoundSums counts the bound sums of the trie-searched
	// initial build: the trie nodes its frontiers reached plus the records
	// they summed envelope entries for. A tiled initial build emits none.
	CounterInitBoundSums = "cluster.init.bound_sums"
)

// Counter names emitted by the adversarial evaluation suite
// (internal/risk.EvaluateAttacks, DESIGN.md §13). All are derived from the
// deterministic attack simulations and therefore worker-count invariant.
const (
	// CounterAttackPopulation is the number of individuals the attack
	// suite evaluated (the release size).
	CounterAttackPopulation = "attack.population"
	// CounterAttackVulnMatching counts individuals with fewer than k
	// candidates under the matching attack (the paper's second adversary).
	CounterAttackVulnMatching = "attack.vulnerable.matching"
	// CounterAttackVulnRefinement counts released rows pinned below k
	// candidates by the no-auxiliary-information refinement attack.
	CounterAttackVulnRefinement = "attack.vulnerable.refinement"
	// CounterAttackVulnIntersection counts individuals below k candidates
	// after intersecting the overlapping-windows repeated releases.
	CounterAttackVulnIntersection = "attack.vulnerable.intersection"
	// CounterAttackVulnUnion counts individuals vulnerable to at least one
	// of the three attacks.
	CounterAttackVulnUnion = "attack.vulnerable.union"
)

// Counter names emitted by the shard loop of the partitioned pipeline
// (core.KAnonymizePartitionedReportCtx, DESIGN.md §14). Both are
// worker-count invariant: shards run sequentially on the driving goroutine.
const (
	// CounterResilientShards counts shards visited, including restored
	// ones and the one that stopped a failed run.
	CounterResilientShards = "resilient.shards"
	// CounterResilientCheckpointHits counts shards skipped because a shard
	// checkpoint already held their completed clusters.
	CounterResilientCheckpointHits = "resilient.checkpoint_hits"
)

// Event is one structured run event. Events are plain values: recording one
// never allocates on the emitting side.
type Event struct {
	// Kind classifies the event.
	Kind Kind
	// Phase is the phase a KindPhaseStart/KindPhaseEnd event brackets
	// (e.g. "cluster.merge"); empty otherwise.
	Phase string
	// Name is the counter/gauge name for KindCounter, KindPeak and
	// KindSched; empty otherwise.
	Name string
	// N is the event's count payload (records, distance evaluations,
	// counter increments, gauge values).
	N int64
	// T is the event's monotonic offset since the run started.
	T time.Duration
}

// Recorder receives the event stream of a run. Implementations must be safe
// for concurrent use.
type Recorder interface {
	Record(Event)
}

// tee fans one event out to several recorders.
type tee []Recorder

// Record implements Recorder.
func (t tee) Record(e Event) {
	for _, r := range t {
		r.Record(e)
	}
}

// Tee returns a Recorder forwarding every event to all of rs, skipping nil
// entries. With zero non-nil recorders it returns nil (disabled).
func Tee(rs ...Recorder) Recorder {
	var out tee
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// Run stamps events with monotonic offsets and forwards them to a recorder.
// A nil *Run is valid and is the disabled path: every method is a no-op
// costing one branch, no allocation and no clock read.
type Run struct {
	rec   Recorder
	start time.Time
}

// NewRun arms a run over rec, starting its monotonic clock now. A nil rec
// yields a nil (disabled) run.
func NewRun(rec Recorder) *Run {
	if rec == nil {
		return nil
	}
	return &Run{rec: rec, start: time.Now()}
}

// Enabled reports whether events are being recorded.
func (r *Run) Enabled() bool { return r != nil }

// Counter adds n to the named counter.
func (r *Run) Counter(name string, n int64) {
	if r == nil {
		return
	}
	r.rec.Record(Event{Kind: KindCounter, Name: name, N: n, T: time.Since(r.start)})
}

// Peak observes the named max-aggregated gauge.
func (r *Run) Peak(name string, n int64) {
	if r == nil {
		return
	}
	r.rec.Record(Event{Kind: KindPeak, Name: name, N: n, T: time.Since(r.start)})
}

// Sched records a scheduler gauge (pool occupancy, span/task counts). Sched
// values are not part of the worker-count-invariant totals.
func (r *Run) Sched(name string, n int64) {
	if r == nil {
		return
	}
	r.rec.Record(Event{Kind: KindSched, Name: name, N: n, T: time.Since(r.start)})
}

// nopEnd is returned by Phase on the disabled path so callers can
// unconditionally defer the end function without allocating.
var nopEnd = func() {}

// Phase emits a KindPhaseStart event and returns the function emitting the
// matching KindPhaseEnd. Start and end run on the same (driving) goroutine:
//
//	defer r.Phase("cluster.init")()
func (r *Run) Phase(name string) func() {
	if r == nil {
		return nopEnd
	}
	r.rec.Record(Event{Kind: KindPhaseStart, Phase: name, T: time.Since(r.start)})
	return func() {
		r.rec.Record(Event{Kind: KindPhaseEnd, Phase: name, T: time.Since(r.start)})
	}
}

// runKey carries the *Run through a context.
type runKey struct{}

// With arms observability on a context: events emitted by pipelines running
// under the returned context reach rec. A nil ctx is treated as
// context.Background(); a nil rec returns ctx unchanged (disabled).
func With(ctx context.Context, rec Recorder) context.Context {
	if ctx == nil {
		ctx = context.Background() //kanon:allow ctxflow -- documented nil-ctx normalization at the observability boundary
	}
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, runKey{}, NewRun(rec))
}

// WithRun is With for an existing run handle, letting several pipeline
// invocations share one monotonic clock.
func WithRun(ctx context.Context, run *Run) context.Context {
	if ctx == nil {
		ctx = context.Background() //kanon:allow ctxflow -- documented nil-ctx normalization at the observability boundary
	}
	if run == nil {
		return ctx
	}
	return context.WithValue(ctx, runKey{}, run)
}

// From extracts the run handle from a context; nil (disabled) when the
// context is nil or carries none. Pipelines call this once at entry, never
// in hot loops.
func From(ctx context.Context) *Run {
	if ctx == nil {
		return nil
	}
	run, _ := ctx.Value(runKey{}).(*Run)
	return run
}
