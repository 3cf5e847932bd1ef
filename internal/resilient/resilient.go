// Package resilient implements the shard supervisor of the partitioned
// anonymization pipeline (DESIGN.md §14): every chunk produced by the
// Mondrian-style splitter runs once, contained, and a completed shard is
// handed to a checkpoint callback so a failed or killed run resumes at
// shard granularity.
//
// Each shard takes exactly one of three branches:
//
//	cached ─────────────────────────────▶ CHECKPOINT (restored, not run)
//	parent ctx done ────────────────────▶ ABORTED    (run stops: ctx.Err())
//	run once, contained ──ok────────────▶ OK
//	                    └─panic / error─▶ run stops: *ShardError
//
// There is no retry. A shard is a deterministic, worker-invariant engine
// run over a fixed input, so a second attempt would repeat the same
// computation and fail the same way. A failure stops the run with a typed
// *ShardError and no release; the shards before it were already
// checkpointed, so the next run restores them and recomputes only the
// rest.
//
// Shards run sequentially on the driving goroutine (only the engines
// inside a shard parallelize), so the RunReport and the resilient.*
// counters are the same at every worker count.
package resilient

import (
	"context"
	"fmt"
	"runtime/debug"

	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/redact"
)

// Unit is one supervised shard. Run executes on the supervisor's goroutine
// under a recover, so a panic inside it is contained.
type Unit struct {
	// Index is the shard's position in the run (the report key).
	Index int
	// Records is the shard's record count, echoed into the report.
	Records int
	// Cached marks a shard already completed by a previous run (resumed
	// from a checkpoint): Run is skipped.
	Cached bool
	// Run executes the engine for this shard.
	Run func(ctx context.Context) error
}

// PanicError wraps a panic contained by the supervisor, so callers
// inspecting a *ShardError can tell a contained panic from an engine
// error via errors.As.
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

// ShardError reports the shard that failed a supervised run. Cause is the
// contained *PanicError or the engine's error.
type ShardError struct {
	Shard int
	Cause error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("resilient: shard %d failed: %v", e.Shard, e.Cause)
}

// Unwrap exposes the underlying failure.
func (e *ShardError) Unwrap() error { return e.Cause }

// Supervise runs every unit once, in index order, and returns the
// per-shard RunReport. The report is always non-nil: on error it covers
// the shards up to and including the one that stopped the run. A done
// parent context stops the run with ctx.Err(); a failed shard stops it
// with a *ShardError.
func Supervise(ctx context.Context, units []Unit, o *obs.Run) (*RunReport, error) {
	rep := &RunReport{Shards: make([]ShardReport, 0, len(units))}
	for _, u := range units {
		sr, err := superviseShard(ctx, u, o)
		rep.add(sr)
		o.Counter(obs.CounterResilientShards, 1)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// superviseShard takes the one branch of the package comment that applies
// to u.
func superviseShard(ctx context.Context, u Unit, o *obs.Run) (ShardReport, error) {
	sr := ShardReport{Shard: u.Index, Records: u.Records}
	if u.Cached {
		sr.Outcome, sr.FromCheckpoint = OutcomeCheckpoint, true
		o.Counter(obs.CounterResilientCheckpointHits, 1)
		return sr, nil
	}
	if par.Done(ctx) {
		sr.Outcome, sr.Err = OutcomeAborted, ctx.Err().Error()
		return sr, ctx.Err()
	}
	err := contained(ctx, u.Run)
	switch {
	case err == nil:
		sr.Outcome = OutcomeOK
		return sr, nil
	case par.Done(ctx):
		// The run-level context died while the shard ran: the whole run
		// was cancelled, the shard did not fail.
		sr.Outcome, sr.Err = OutcomeAborted, ctx.Err().Error()
		return sr, ctx.Err()
	}
	sr.Outcome, sr.Err = OutcomeFailed, err.Error()
	return sr, &ShardError{Shard: u.Index, Cause: err}
}

// contained runs fn converting panics into a *PanicError, unwrapping
// *par.TaskPanic so a panic inside a worker pool reports the same value as
// one on the driving goroutine.
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
