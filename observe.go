package kanon

import "kanon/internal/obs"

// Observability surface of the facade. The types are aliases of the
// internal/obs layer, so a Recorder written against this package works
// unchanged inside the engines.
//
// A run is observed by setting Options.Observer; independently of any
// observer, every Anonymize call aggregates its own metrics, returned by
// Result.Stats(). Profiling (CPU/heap/trace capture) brackets a run
// explicitly:
//
//	p, _ := kanon.StartProfile(kanon.ProfileDir("prof"))
//	res, _ := kanon.Anonymize(t, opt)
//	_ = p.Stop()

// Observer receives the structured event stream of a run: its phase
// brackets, and each counter, peak and scheduler gauge once per pipeline
// run, all from the driving goroutine. Implementations must still be safe
// for concurrent use: separate runs may share one.
type Observer = obs.Recorder

// RunEvent is one structured run event: a Kind, the phase it brackets or
// the counter/gauge it names, a count payload and a monotonic offset since
// the run started.
type RunEvent = obs.Event

// EventKind classifies a RunEvent.
type EventKind = obs.Kind

// The event taxonomy (see DESIGN.md §10).
const (
	// EventPhaseStart and EventPhaseEnd bracket a named pipeline phase.
	EventPhaseStart = obs.KindPhaseStart
	EventPhaseEnd   = obs.KindPhaseEnd
	// EventCounter, EventPeak and EventSched are named counter, max-gauge
	// and scheduler-gauge contributions.
	EventCounter = obs.KindCounter
	EventPeak    = obs.KindPeak
	EventSched   = obs.KindSched
)

// RunStats is the unified per-run statistics surface: per-phase wall time,
// worker-count-invariant counter totals, peak gauges and scheduler gauges.
// Result.Stats() returns one for every run, regardless of notion.
type RunStats = obs.RunStats

// PhaseStats is the aggregate of one named pipeline phase within RunStats.
type PhaseStats = obs.PhaseStats

// Metrics aggregates a RunEvent stream into a RunStats; use it as an
// Options.Observer (or via Config plumbing) when you want live aggregation
// — Result.Stats() already does this for the facade's own runs.
type Metrics = obs.Metrics

// NewMetrics returns an empty Metrics aggregator.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// ProfileOptions selects which profiles a StartProfile capture writes;
// empty paths disable the corresponding capture.
type ProfileOptions = obs.ProfileOptions

// Profile is an in-flight profiling capture bracketing a run.
type Profile = obs.Profile

// StartProfile begins CPU/heap/trace captures per opt; the caller must call
// Stop exactly once.
func StartProfile(opt ProfileOptions) (*Profile, error) { return obs.StartProfile(opt) }

// ProfileDir is the conventional capture layout: cpu.pprof, heap.pprof and
// trace.out inside dir.
func ProfileDir(dir string) ProfileOptions { return obs.ProfileDir(dir) }

// TraceObserver returns an Observer that opens a runtime/trace region per
// pipeline phase, making phases visible in `go tool trace` timelines (pair
// with a StartProfile capture that sets TracePath).
func TraceObserver() Observer { return obs.NewTraceRecorder() }
