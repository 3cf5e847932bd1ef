// Package resilient implements the shard supervisor of the partitioned
// anonymization pipeline (DESIGN.md §14): every chunk produced by the
// Mondrian-style splitter runs as an isolated, restartable unit of work,
// so a single panic, injected fault or blown deadline inside one shard no
// longer aborts a whole multi-thousand-shard run.
//
// The supervisor is a small deterministic state machine per shard:
//
//	RUN ──ok──────────────────────────────▶ DONE
//	 │
//	 ├─transient (fault / deadline / 1st panic)
//	 │     │ backoff(seed, shard, attempt)   — attempts < MaxAttempts
//	 │     ▼
//	 │    RETRY ──────────────────────────▶ RUN
//	 │
//	 └─deterministic (engine error, repeated panic) or budget exhausted
//	       ▼
//	   QUARANTINE ──degraded engine ok────▶ DONE (degraded)
//	       │
//	       └─NoDegraded / degraded failed─▶ run fails (*ShardError)
//
// Failures are classified transient vs deterministic: injected faults
// (*fault.Injected) and per-attempt deadline expiries are transient by
// definition; an engine error (validation, impossible input) is
// deterministic — the same input will fail the same way, so retrying is
// wasted work; a contained panic is transient on first sight but
// reclassified deterministic as soon as it repeats with the identical
// message, which short-circuits the remaining retry budget.
//
// Everything the supervisor decides is a pure function of (policy, shard
// index, attempt outcomes): the backoff schedule is derived by splitmix64
// from Policy.Seed exactly like fault.Seeded derives hit counts, so a
// faulted run replays bit-for-bit — same seed, same rules, same RunReport,
// same output bytes — at any worker count (shards are supervised
// sequentially on the driving goroutine; only the engines inside a shard
// parallelize).
package resilient

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"kanon/internal/fault"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/redact"
)

// SiteShardRetry is the fault-injection site fired at the start of every
// retry attempt (attempt ≥ 2) of a shard, inside the attempt's containment
// scope — so a rule armed here exercises the supervisor's own recovery
// path (a panicking retry consumes budget and ultimately quarantines).
const SiteShardRetry = "resilient.shard.retry"

// Policy configures the shard supervisor. The zero value selects the
// defaults noted per field; DefaultPolicy spells them out.
type Policy struct {
	// MaxAttempts is the number of primary-engine attempts per shard,
	// including the first; ≤ 0 selects 3.
	MaxAttempts int
	// BackoffBase is the delay before the second attempt; it doubles per
	// further attempt. ≤ 0 selects 5ms.
	BackoffBase time.Duration
	// BackoffMax caps the exponential schedule. ≤ 0 selects 250ms.
	BackoffMax time.Duration
	// Seed drives the deterministic backoff jitter (splitmix64 over
	// (Seed, shard, attempt)); the schedule replays exactly per seed.
	Seed int64
	// ShardDeadline bounds each primary attempt (0 = unbounded). An
	// attempt that exceeds it is a transient failure. The degraded
	// fallback runs without a deadline: it must terminate.
	ShardDeadline time.Duration
	// NoDegraded disables degraded-mode completion: a shard that exhausts
	// its retry budget fails the run instead of falling back to the unit's
	// Degraded run (the partitioned pipeline's single-worker re-run).
	NoDegraded bool
}

// DefaultPolicy returns the supervisor defaults: 3 attempts, 5ms–250ms
// exponential backoff, degraded fallback enabled, no deadline.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 3, BackoffBase: 5 * time.Millisecond, BackoffMax: 250 * time.Millisecond}
}

// withDefaults resolves the zero-value fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = 5 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 250 * time.Millisecond
	}
	return p
}

// Backoff returns the deterministic delay scheduled after the attempt-th
// failed attempt (1-based) of the given shard: an exponential base
// 2^(attempt-1)·BackoffBase capped at BackoffMax, jittered into
// [base/2, base) by a splitmix64 hash of (Seed, shard, attempt). Pure —
// no clock, no shared state — so the trace in the RunReport replays
// bit-for-bit.
func (p Policy) Backoff(shard, attempt int) time.Duration {
	p = p.withDefaults()
	base := p.BackoffBase
	for a := 1; a < attempt && base < p.BackoffMax; a++ {
		base *= 2
	}
	if base > p.BackoffMax {
		base = p.BackoffMax
	}
	if base < 2 {
		return base
	}
	half := uint64(base / 2)
	x := uint64(p.Seed) ^ 0x9e3779b97f4a7c15*uint64(shard+1) + 0xbf58476d1ce4e5b9*uint64(attempt)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return time.Duration(half + x%half)
}

// Unit is one supervised shard: the primary work function, the
// always-terminating degraded fallback, and the bookkeeping the report
// needs. Run and Degraded execute on the supervisor's goroutine under a
// recover, so panics are contained per attempt.
type Unit struct {
	// Index is the shard's position in the run (the report key).
	Index int
	// Records is the shard's record count, echoed into the report.
	Records int
	// Cached marks a shard already completed by a previous run (resumed
	// from a checkpoint): Run and Degraded are skipped entirely.
	Cached bool
	// Run executes the primary engine for this shard.
	Run func(ctx context.Context) error
	// Degraded executes the reference fallback after quarantine; nil is
	// treated as Policy.NoDegraded for this unit.
	Degraded func(ctx context.Context) error
}

// PanicError wraps a panic contained by the supervisor, so classification
// (and callers inspecting a *ShardError) can tell injected faults from
// real engine bugs via errors.As.
type PanicError struct {
	// Value is the original panic value (unwrapped from *par.TaskPanic
	// when the panic crossed a worker pool).
	Value interface{}
	// Stack is the stack of the panicking goroutine.
	Stack []byte
}

// Error implements error. The panic payload may embed record values (a
// cell string interpolated by the code that panicked), so the message
// carries only its dynamic type and digest (DESIGN.md §16); callers that
// need the payload programmatically use Value or Unwrap.
func (e *PanicError) Error() string {
	return "resilient: contained shard panic: " + redact.Panic(e.Value)
}

// Unwrap exposes the panic value when it was an error (e.g. a
// *fault.Injected), so errors.As reaches through.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// ShardError reports the shard that failed a supervised run: either a
// quarantined shard with degraded mode unavailable (Stage "quarantined"),
// or a shard whose degraded fallback itself failed (Stage "degraded").
type ShardError struct {
	Shard    int
	Attempts int
	Stage    string
	Cause    error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("resilient: shard %d %s after %d attempts: %v", e.Shard, e.Stage, e.Attempts, e.Cause)
}

// Unwrap exposes the underlying failure.
func (e *ShardError) Unwrap() error { return e.Cause }

// Supervise runs every unit in index order under the policy, returning the
// per-shard RunReport. The report is always non-nil: on error it covers
// the shards supervised up to and including the failing one, which is what
// lets a caller checkpoint partial progress. A done parent context aborts
// the run with ctx.Err() after the in-flight attempt drains, exactly like
// the unsupervised pipeline. Shards run sequentially on the calling
// goroutine, so the report and all resilient.* counters emitted through o
// are worker-count invariant and replay bit-for-bit.
func Supervise(ctx context.Context, units []Unit, p Policy, o *obs.Run) (*RunReport, error) {
	p = p.withDefaults()
	rep := &RunReport{Shards: make([]ShardReport, 0, len(units))}
	for _, u := range units {
		sr, err := p.superviseShard(ctx, u, o)
		rep.add(sr)
		o.Counter(obs.CounterResilientShards, 1)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// superviseShard drives one unit through the state machine documented in
// the package comment.
func (p Policy) superviseShard(ctx context.Context, u Unit, o *obs.Run) (ShardReport, error) {
	sr := ShardReport{Shard: u.Index, Records: u.Records}
	if u.Cached {
		sr.FromCheckpoint = true
		sr.Attempts = append(sr.Attempts, Attempt{Outcome: OutcomeCheckpoint})
		o.Counter(obs.CounterResilientCheckpointHits, 1)
		return sr, nil
	}
	var prevPanic string
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if par.Done(ctx) {
			sr.Attempts = append(sr.Attempts, Attempt{Outcome: OutcomeAborted, Err: ctx.Err().Error()})
			return sr, ctx.Err()
		}
		err := p.attempt(ctx, u, attempt)
		if err == nil {
			sr.Attempts = append(sr.Attempts, Attempt{Outcome: OutcomeOK})
			return sr, nil
		}
		if par.Done(ctx) {
			// The parent (run-level) context died during the attempt: this
			// is a cancellation of the whole run, not a shard failure.
			sr.Attempts = append(sr.Attempts, Attempt{Outcome: OutcomeAborted, Err: ctx.Err().Error()})
			return sr, ctx.Err()
		}
		at := classify(err, prevPanic)
		if at.Outcome == OutcomePanic {
			prevPanic = at.Err
		}
		if at.Class == ClassTransient && attempt < p.MaxAttempts {
			at.Backoff = p.Backoff(u.Index, attempt)
			sr.Attempts = append(sr.Attempts, at)
			o.Counter(obs.CounterResilientRetries, 1)
			sleepCtx(ctx, at.Backoff)
			continue
		}
		sr.Attempts = append(sr.Attempts, at)
		break
	}
	// Retry budget exhausted or failure classified deterministic:
	// quarantine the shard from the optimizing engine.
	sr.Quarantined = true
	o.Counter(obs.CounterResilientQuarantined, 1)
	last := sr.Attempts[len(sr.Attempts)-1]
	cause := fmt.Errorf("%s (%s): %s", last.Outcome, last.Class, last.Err)
	if p.NoDegraded || u.Degraded == nil {
		return sr, &ShardError{Shard: u.Index, Attempts: len(sr.Attempts), Stage: "quarantined", Cause: cause}
	}
	if derr := contained(ctx, u.Degraded); derr != nil {
		if par.Done(ctx) {
			sr.Attempts = append(sr.Attempts, Attempt{Outcome: OutcomeAborted, Err: ctx.Err().Error()})
			return sr, ctx.Err()
		}
		return sr, &ShardError{Shard: u.Index, Attempts: len(sr.Attempts), Stage: "degraded", Cause: derr}
	}
	sr.Degraded = true
	sr.DegradedReason = fmt.Sprintf("%s after %d attempts (%s)", last.Outcome, len(sr.Attempts), last.Class)
	o.Counter(obs.CounterResilientDegraded, 1)
	return sr, nil
}

// attempt runs one contained primary attempt: the retry fault site fires
// inside the containment scope on attempts ≥ 2, and ShardDeadline (when
// set) bounds the attempt with its own child context.
func (p Policy) attempt(ctx context.Context, u Unit, attempt int) error {
	run := func(c context.Context) error {
		if attempt > 1 {
			fault.InjectCtx(c, SiteShardRetry)
		}
		return u.Run(c)
	}
	if p.ShardDeadline <= 0 {
		return contained(ctx, run)
	}
	parent := ctx
	if parent == nil {
		parent = context.Background() //kanon:allow ctxflow -- a nil parent disables cancellation, but the attempt deadline still needs a root to hang its timer on
	}
	attemptCtx, cancel := context.WithTimeout(parent, p.ShardDeadline)
	defer cancel()
	return contained(attemptCtx, run)
}

// contained runs fn converting panics into a *PanicError, unwrapping
// *par.TaskPanic so panics contained by a worker pool classify the same as
// panics on the driving goroutine.
func contained(ctx context.Context, fn func(context.Context) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if tp, ok := v.(*par.TaskPanic); ok {
				err = &PanicError{Value: tp.Value, Stack: tp.Stack}
				return
			}
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}

// classify maps one attempt's failure to (outcome, class): injected faults
// and deadline expiries are transient, engine errors deterministic, and a
// contained panic is transient until it repeats with an identical message.
func classify(err error, prevPanic string) Attempt {
	var inj *fault.Injected
	if errors.As(err, &inj) {
		return Attempt{Outcome: OutcomeFault, Class: ClassTransient, Err: inj.Error()}
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		// The redacted form (type + digest) is what enters the report and
		// what repeat detection compares: identical payloads digest
		// identically, and the raw value never reaches a diagnostic line.
		msg := redact.Panic(pe.Value)
		class := ClassTransient
		if msg == prevPanic {
			class = ClassDeterministic
		}
		return Attempt{Outcome: OutcomePanic, Class: class, Err: msg}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// The parent was checked alive by the caller, so the expiry is the
		// attempt's own ShardDeadline.
		return Attempt{Outcome: OutcomeDeadline, Class: ClassTransient, Err: err.Error()}
	}
	return Attempt{Outcome: OutcomeError, Class: ClassDeterministic, Err: err.Error()}
}

// sleepCtx sleeps for d, returning early when ctx is done. The schedule
// stays deterministic either way: the recorded backoff is the scheduled
// delay, never a measured one.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if ctx == nil {
		time.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
