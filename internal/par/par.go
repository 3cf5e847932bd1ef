// Package par provides the bounded worker pool shared by the clustering
// engine (internal/cluster), the (k,1)/(k,k) pipelines (internal/core) and
// the experiment driver (internal/experiment).
//
// The pool offers two scheduling disciplines:
//
//   - ForSpans shards an index range into contiguous spans whose
//     boundaries depend only on (n, grain, Size()) — never on scheduling —
//     so deterministic engines can fan out work and still produce
//     bit-identical results at any worker count;
//   - EachCtx hands out indices dynamically (an atomic cursor), which suits
//     heterogeneous tasks such as whole experiment cells. Callers must
//     confine writes per index, which also keeps results deterministic.
//
// Task submission never blocks: if no helper goroutine is free the
// submitting goroutine runs the task inline, so pools cannot deadlock even
// when nested or shared.
//
// Robustness: every task body (helper or inline) runs under a recover,
// and so does a span's context poll before it starts; the first captured
// panic is re-raised on the submitting goroutine as a *TaskPanic after
// all spans drained, so a panicking task can never kill the process from
// a helper goroutine or leave the pool's accounting wedged. The *Ctx variants additionally stop handing out spans or indices
// once the supplied context is done and return ctx.Err() after draining
// the tasks already started.
package par

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"kanon/internal/redact"
)

// TaskPanic wraps a panic captured inside a pool task, which the pool
// re-raises on the goroutine that submitted the work once all in-flight
// tasks drained, or contained by Recover. Value is the original panic value
// and Stack the stack of the panicking goroutine.
type TaskPanic struct {
	Value interface{}
	Stack []byte
}

// Error implements error so recovered TaskPanics render cleanly. The
// payload is rendered in redacted form (dynamic type + digest): a panic
// raised inside an engine may interpolate record values, and the rendered
// message flows into logs and reports (DESIGN.md §16). Inspect Value or
// Unwrap for the payload itself.
func (t *TaskPanic) Error() string {
	return "par: contained panic: " + redact.Panic(t.Value)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.As can reach through a recovered TaskPanic.
func (t *TaskPanic) Unwrap() error {
	if err, ok := t.Value.(error); ok {
		return err
	}
	return nil
}

// Workers resolves a requested worker count: values ≤ 0 select
// runtime.NumCPU(), anything positive is returned unchanged.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.NumCPU()
}

// PoolStats is a snapshot of a pool's scheduling counters. The split
// between helper and inline execution depends on timing, so these are
// observability gauges (obs.KindSched), not deterministic totals.
type PoolStats struct {
	// Spans counts spans handed out by ForSpans (including the single
	// span of sequential fallbacks).
	Spans int64
	// HelperTasks counts tasks that ran on a helper goroutine.
	HelperTasks int64
	// InlineTasks counts tasks that ran on the submitting goroutine —
	// its own span plus any overflow when no helper was free.
	InlineTasks int64
}

// Pool is a bounded worker pool. The zero value is not usable; call New.
// A Pool is intended to be driven from one goroutine at a time (the engines
// each own one); the helper goroutines themselves are of course concurrent.
type Pool struct {
	workers int
	tasks   chan func()

	spans       atomic.Int64
	helperTasks atomic.Int64
	inlineTasks atomic.Int64
}

// New builds a pool of Workers(workers) workers. A pool with more than one
// worker owns workers−1 helper goroutines — the submitting goroutine acts
// as the last worker — which Close releases.
func New(workers int) *Pool {
	p := &Pool{workers: Workers(workers)}
	if p.workers > 1 {
		// Small buffer so a burst of submissions does not force the
		// caller inline while helpers are between tasks. Helpers range
		// over a local copy of the channel: Close nils the field, and the
		// field write must not race with helper startup.
		tasks := make(chan func(), p.workers-1)
		p.tasks = tasks
		for i := 0; i < p.workers-1; i++ {
			go func() {
				for task := range tasks {
					task()
				}
			}()
		}
	}
	return p
}

// Size returns the worker count.
func (p *Pool) Size() int { return p.workers }

// Stats returns a snapshot of the pool's scheduling counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Spans:       p.spans.Load(),
		HelperTasks: p.helperTasks.Load(),
		InlineTasks: p.inlineTasks.Load(),
	}
}

// Close releases the helper goroutines. The pool must not be used after.
func (p *Pool) Close() {
	if p.tasks != nil {
		close(p.tasks)
		p.tasks = nil
	}
}

// panicBox captures the first panic raised inside pool tasks so it can be
// re-raised on the submitting goroutine after the pool drained.
type panicBox struct {
	tp atomic.Pointer[TaskPanic]
}

// run executes fn, converting a panic into a stored TaskPanic (first one
// wins).
func (b *panicBox) run(fn func()) {
	defer func() {
		if v := recover(); v != nil {
			b.tp.CompareAndSwap(nil, asTaskPanic(v))
		}
	}()
	fn()
}

// asTaskPanic wraps a recovered panic value with the stack of the
// recovering goroutine. A *TaskPanic, re-raised by a pool on its submitting
// goroutine, keeps its own value and stack, so nested containment never
// wraps one TaskPanic in another. It is copied rather than returned: only
// the Value field of a fresh TaskPanic holds the payload, which is what
// lets the leakcheck analyzer prove the error chain payload-free.
func asTaskPanic(v interface{}) *TaskPanic {
	if tp, ok := v.(*TaskPanic); ok {
		return &TaskPanic{Value: tp.Value, Stack: tp.Stack}
	}
	return &TaskPanic{Value: v, Stack: debug.Stack()}
}

// Recover runs fn on the calling goroutine and returns its error, or a
// *TaskPanic if it panics: the containment of one unit of work outside the
// pool, such as one shard of a partitioned run or one experiment run.
func Recover(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = asTaskPanic(v)
		}
	}()
	return fn()
}

// tripped reports whether a task already panicked (pending re-raise).
func (b *panicBox) tripped() bool { return b.tp.Load() != nil }

// rethrow re-raises the captured panic, if any, on the calling goroutine.
func (b *panicBox) rethrow() {
	if tp := b.tp.Load(); tp != nil {
		panic(tp)
	}
}

// Done reports whether the context is non-nil and already cancelled. It is
// the one nil-context check shared by every *Ctx variant in the stack
// (cluster, core, experiment): a nil context never reports done, which is
// what lets the facade document nil-ctx handling in a single place.
func Done(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// done is the package-internal alias kept for call-site brevity.
func done(ctx context.Context) bool { return Done(ctx) }

// ForSpans splits [0, n) into at most Size() contiguous spans of at least
// grain indices each and runs fn(lo, hi, span) for every span concurrently,
// returning once all spans finished. Span indices are dense in [0, spans)
// and ascend with the ranges they cover; the split depends only on
// (n, grain, Size()). fn must confine its writes to its index range or to
// span-indexed state. Returns the number of spans used.
func (p *Pool) ForSpans(n, grain int, fn func(lo, hi, span int)) int {
	spans, _ := p.forSpans(nil, n, grain, fn)
	return spans
}

// ForSpansCtx is ForSpans under a context: spans not yet dispatched when
// ctx is done are skipped, already-running spans drain, and the call
// returns ctx.Err() (with the span count actually run). fn must check ctx
// itself if individual spans are long.
func (p *Pool) ForSpansCtx(ctx context.Context, n, grain int, fn func(lo, hi, span int)) (int, error) {
	return p.forSpans(ctx, n, grain, fn)
}

func (p *Pool) forSpans(ctx context.Context, n, grain int, fn func(lo, hi, span int)) (int, error) {
	if n <= 0 || done(ctx) {
		if ctx != nil {
			return 0, ctx.Err()
		}
		return 0, nil
	}
	if grain < 1 {
		grain = 1
	}
	spans := p.workers
	if most := n / grain; spans > most {
		spans = most
	}
	if spans <= 1 || p.tasks == nil {
		p.spans.Add(1)
		p.inlineTasks.Add(1)
		fn(0, n, 0)
		if ctx != nil {
			return 1, ctx.Err()
		}
		return 1, nil
	}
	p.spans.Add(int64(spans))
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(spans - 1)
	for w := spans - 1; w >= 1; w-- {
		lo, hi, span := n*w/spans, n*(w+1)/spans, w
		task := func() {
			defer wg.Done()
			box.run(func() {
				if !box.tripped() && !done(ctx) {
					fn(lo, hi, span)
				}
			})
		}
		select {
		case p.tasks <- task:
			p.helperTasks.Add(1)
		default:
			p.inlineTasks.Add(1)
			task() // no helper free: run inline rather than block
		}
	}
	p.inlineTasks.Add(1)
	box.run(func() {
		if !box.tripped() && !done(ctx) {
			fn(0, n/spans, 0)
		}
	})
	wg.Wait()
	box.rethrow()
	if ctx != nil {
		return spans, ctx.Err()
	}
	return spans, nil
}

// EachCtx runs fn(i) for every i in [0, n) with dynamic scheduling: workers
// pull the next index from a shared atomic cursor, so long tasks do not
// stall a whole span. Use for heterogeneous task durations. fn must confine
// its writes to per-index state, which also keeps results deterministic.
// Once ctx is done no further indices are handed out, indices already
// running drain, and ctx.Err() is returned; a nil ctx runs every index.
func (p *Pool) EachCtx(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 || done(ctx) {
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	if p.tasks == nil || n == 1 {
		var box panicBox
		for i := 0; i < n && !done(ctx) && !box.tripped(); i++ {
			i := i
			box.run(func() { fn(i) })
		}
		box.rethrow()
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	var box panicBox
	var cursor atomic.Int64
	loop := func() {
		for {
			// A tripped box or done context stops the hand-out; indices
			// already running elsewhere drain on their own workers.
			if box.tripped() || done(ctx) {
				return
			}
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			box.run(func() { fn(i) })
		}
	}
	helpers := p.workers - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	var wg sync.WaitGroup
	wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		task := func() {
			defer wg.Done()
			loop()
		}
		select {
		case p.tasks <- task:
			p.helperTasks.Add(1)
		default:
			p.inlineTasks.Add(1)
			task()
		}
	}
	p.inlineTasks.Add(1)
	loop()
	wg.Wait()
	box.rethrow()
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}
