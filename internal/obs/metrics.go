package obs

import (
	"encoding/json"
	"expvar"
	"sync"
	"time"
)

// PhaseStats is the aggregate of one named pipeline phase.
type PhaseStats struct {
	// Name is the phase name (e.g. "cluster.merge").
	Name string `json:"name"`
	// WallNanos is the summed wall time of all start/end brackets of the
	// phase.
	WallNanos int64 `json:"wall_ns"`
	// Starts counts how many times the phase was entered (the partitioned
	// pipeline re-enters the cluster phases once per chunk).
	Starts int64 `json:"starts"`
}

// RunStats is the unified per-run statistics surface: what every pipeline
// reports, regardless of notion. The facade returns it from Result.Stats()
// and the experiment driver embeds it in its output rows.
type RunStats struct {
	// Notion, Workers and Records identify the run; they are filled by the
	// caller that owns the run (the facade or the experiment driver), not
	// from events.
	Notion  string `json:"notion,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Records int    `json:"records,omitempty"`

	// WallNanos is the offset of the latest event observed — the
	// instrumented span of the run.
	WallNanos int64 `json:"wall_ns"`
	// Phases holds the per-phase aggregates, ordered by first entry.
	Phases []PhaseStats `json:"phases"`
	// Counters holds the counter totals (merges, distance evaluations,
	// scans, augmentation steps, chunk counts, …). Totals are identical at
	// every worker count for the same input and seed.
	Counters map[string]int64 `json:"counters"`
	// Peaks holds max-aggregated gauges (e.g. peak live clusters).
	Peaks map[string]int64 `json:"peaks,omitempty"`
	// Sched holds scheduler gauges (pool size, span/task splits). Unlike
	// Counters these may vary with the worker count and between runs.
	Sched map[string]int64 `json:"sched,omitempty"`
	// Events is the total number of events observed: phase brackets,
	// counters, peaks and scheduler gauges. Emission stays on the driving
	// goroutine, so this is worker-count invariant and does not grow with
	// the record count, but treat it as informational.
	Events int64 `json:"events"`
}

// Counter returns a counter total, 0 when absent.
func (s RunStats) Counter(name string) int64 { return s.Counters[name] }

// Phase returns the named phase aggregate (zero value when the phase never
// ran).
func (s RunStats) Phase(name string) PhaseStats {
	for _, p := range s.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStats{Name: name}
}

// JSON renders the stats as a compact JSON object.
func (s RunStats) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "{}" // unreachable: RunStats marshals cleanly
	}
	return string(b)
}

// Normalize zeroes every wall-clock field and drops the scheduler gauges,
// leaving only the deterministic portion of the stats. The experiment
// driver applies it in Deterministic mode so checkpointed-and-resumed
// suites serialize byte-identically to uninterrupted ones.
func (s *RunStats) Normalize() {
	s.WallNanos = 0
	for i := range s.Phases {
		s.Phases[i].WallNanos = 0
	}
	s.Sched = nil
}

// phaseAgg is the in-flight state of one phase inside Metrics.
type phaseAgg struct {
	stats PhaseStats
	// open holds the start offsets of unmatched PhaseStart events (a stack,
	// for re-entrant phases).
	open []time.Duration
}

// Metrics is a Recorder folding the event stream into RunStats. It is safe
// for concurrent use; one instance aggregates one run (arm a fresh Metrics
// per run).
type Metrics struct {
	mu       sync.Mutex
	order    []string
	phases   map[string]*phaseAgg
	counters map[string]int64
	peaks    map[string]int64
	sched    map[string]int64
	events   int64
	maxT     time.Duration
}

// NewMetrics returns an empty aggregator.
func NewMetrics() *Metrics {
	return &Metrics{
		phases:   make(map[string]*phaseAgg),
		counters: make(map[string]int64),
		peaks:    make(map[string]int64),
		sched:    make(map[string]int64),
	}
}

// Record implements Recorder.
func (m *Metrics) Record(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events++
	if e.T > m.maxT {
		m.maxT = e.T
	}
	switch e.Kind {
	case KindPhaseStart:
		p := m.phase(e.Phase)
		p.stats.Starts++
		p.open = append(p.open, e.T)
	case KindPhaseEnd:
		p := m.phase(e.Phase)
		if n := len(p.open); n > 0 {
			p.stats.WallNanos += int64(e.T - p.open[n-1])
			p.open = p.open[:n-1]
		}
	case KindCounter:
		m.counters[e.Name] += e.N
	case KindPeak:
		if e.N > m.peaks[e.Name] {
			m.peaks[e.Name] = e.N
		}
	case KindSched:
		m.sched[e.Name] += e.N
	}
}

// phase returns (creating on first use) the aggregate of a named phase.
// Callers hold m.mu.
func (m *Metrics) phase(name string) *phaseAgg {
	p, ok := m.phases[name]
	if !ok {
		p = &phaseAgg{stats: PhaseStats{Name: name}}
		m.phases[name] = p
		m.order = append(m.order, name)
	}
	return p
}

// Snapshot folds the events observed so far into a RunStats. It may be
// called while events are still arriving; the snapshot is internally
// consistent.
func (m *Metrics) Snapshot() RunStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := RunStats{
		WallNanos: int64(m.maxT),
		Counters:  make(map[string]int64, len(m.counters)),
		Events:    m.events,
	}
	for _, name := range m.order {
		s.Phases = append(s.Phases, m.phases[name].stats)
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	if len(m.peaks) > 0 {
		s.Peaks = make(map[string]int64, len(m.peaks))
		for k, v := range m.peaks {
			s.Peaks[k] = v
		}
	}
	if len(m.sched) > 0 {
		s.Sched = make(map[string]int64, len(m.sched))
		for k, v := range m.sched {
			s.Sched[k] = v
		}
	}
	return s
}

// Var exposes the aggregator as an expvar variable: its String() renders
// the current Snapshot as JSON. Publish it under a process-unique name:
//
//	expvar.Publish("kanon.lastrun", m.Var())
func (m *Metrics) Var() expvar.Var {
	return expvar.Func(func() interface{} { return m.Snapshot() })
}
