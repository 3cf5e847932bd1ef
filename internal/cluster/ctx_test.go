package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kanon/internal/obs"
	"kanon/internal/par"
)

// pollCtx is a live context whose Err reports context.Canceled from its
// cancelAt-th call on (0 never cancels). The engine polls for cancellation
// through par.Done, which calls Err, so polls counts a run's cancellation
// checks and cancelAt picks the check that first sees the cancellation.
type pollCtx struct {
	context.Context
	cancelAt int64
	polls    atomic.Int64
	once     sync.Once
	at       time.Time // when the cancelAt-th poll ran
}

func newPollCtx(cancelAt int64) *pollCtx {
	return &pollCtx{Context: context.Background(), cancelAt: cancelAt}
}

// Err implements context.Context.
func (c *pollCtx) Err() error {
	if p := c.polls.Add(1); c.cancelAt > 0 && p >= c.cancelAt {
		c.once.Do(func() { c.at = time.Now() })
		return context.Canceled
	}
	return nil
}

// TestAgglomerateCtxCancelAtEverySite cancels the engine at every
// cancellation poll of a clean run in turn, scan tiles, merges, heap
// repairs and absorbed records alike, and asserts ctx.Err() with no
// partial output each time.
func TestAgglomerateCtxCancelAtEverySite(t *testing.T) {
	s, tbl := randomSpace(t, rand.New(rand.NewSource(9)), 120)
	// Workers 1 keeps the poll order fixed; Modified shrinks clusters to
	// exactly K, and 120 mod 7 != 0 leaves leftover records, which forces
	// the absorb pass.
	opt := AggloOptions{K: 7, Distance: D3{}, Workers: 1, Modified: true}
	clean := newPollCtx(0)
	met := obs.NewMetrics()
	_, st, err := AgglomerateStatsCtx(obs.With(clean, met), s, tbl, opt)
	if err != nil || st.Merges == 0 {
		t.Fatalf("clean run: err = %v after %d merges", err, st.Merges)
	}
	// The sweep covers the rarest polls only if the clean run reaches
	// them: a pop-time heal (every full rescan is one) and the absorb pass.
	if st.DeadNNRescans == 0 {
		t.Fatal("clean run healed no dead neighbour: the heap-repair poll is not swept")
	}
	if got := met.Snapshot().Counter("cluster.absorbs"); got == 0 {
		t.Fatal("clean run absorbed no leftover record: the absorb poll is not swept")
	}
	polls := clean.polls.Load()
	t.Logf("clean run: %d polls", polls)
	for at := int64(1); at <= polls; at++ {
		clusters, _, err := AgglomerateStatsCtx(newPollCtx(at), s, tbl, opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err = %v, want context.Canceled", at, polls, err)
		}
		if clusters != nil {
			t.Fatalf("cancelled at poll %d of %d: partial clusters returned", at, polls)
		}
	}
}

// TestAgglomerateCtxNilMatchesPlain asserts the nil-context path is the
// identity: AgglomerateStatsCtx(nil, ...) produces exactly the clusters of
// a run under a live context that is polled but never cancelled.
func TestAgglomerateCtxNilMatchesPlain(t *testing.T) {
	s, tbl := randomSpace(t, rand.New(rand.NewSource(3)), 80)
	a, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D3{}})
	if err != nil {
		t.Fatal(err)
	}
	live := newPollCtx(0)
	b, _, err := AgglomerateStatsCtx(live, s, tbl, AggloOptions{K: 5, Distance: D3{}})
	if err != nil {
		t.Fatal(err)
	}
	if live.polls.Load() == 0 {
		t.Fatal("live run never polled its context")
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d clusters", len(a), len(b))
	}
	for i := range a {
		if !slices.Equal(a[i].Closure, b[i].Closure) {
			t.Fatalf("cluster %d closure differs", i)
		}
		if len(a[i].Members) != len(b[i].Members) {
			t.Fatalf("cluster %d differs", i)
		}
		for j := range a[i].Members {
			if a[i].Members[j] != b[i].Members[j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

// TestAgglomerateCtxAlreadyCancelled checks the fast path: a context that
// is done before the run starts costs no work at all.
func TestAgglomerateCtxAlreadyCancelled(t *testing.T) {
	s, tbl := randomSpace(t, rand.New(rand.NewSource(1)), 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	clusters, stats, err := AgglomerateStatsCtx(ctx, s, tbl, AggloOptions{K: 4, Distance: D3{}})
	if !errors.Is(err, context.Canceled) || clusters != nil {
		t.Fatalf("clusters=%v err=%v", clusters, err)
	}
	if stats.DistEvals != 0 {
		t.Fatalf("%d distance evaluations under a pre-cancelled context", stats.DistEvals)
	}
}

// evalPanic is the panic value of panicAtEval.
type evalPanic struct{ call int64 }

func (e *evalPanic) Error() string { return fmt.Sprintf("distance evaluation %d panicked", e.call) }

// panicAtEval is D3 as a custom distance whose at-th Eval panics. The
// kernel cannot devirtualize it, so every pair of the initial build goes
// through Eval on the pool's init workers.
type panicAtEval struct {
	at    int64
	calls *atomic.Int64
}

func (panicAtEval) Name() string { return "panic-at-eval" }

func (d panicAtEval) Eval(sa, sb, su int, dA, dB, dU float64) float64 {
	if c := d.calls.Add(1); c == d.at {
		panic(&evalPanic{call: c})
	}
	return D3{}.Eval(sa, sb, su, dA, dB, dU)
}

// TestAgglomerateInjectedPanicPropagates asserts a panic inside the
// engine's parallel init scan arrives at the caller as a recoverable
// *par.TaskPanic carrying the panic value — not a process abort.
func TestAgglomerateInjectedPanicPropagates(t *testing.T) {
	s, tbl := randomSpace(t, rand.New(rand.NewSource(4)), 100)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic did not propagate")
		}
		tp, ok := v.(*par.TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *par.TaskPanic", v)
		}
		var ep *evalPanic
		if !errors.As(tp, &ep) || ep.call != 2000 {
			t.Fatalf("panic value %v does not carry the distance's panic", tp.Value)
		}
	}()
	// 100 records make 4 init blocks of 32, so Workers 4 splits the build
	// over 4 spans; its 4950 pairs make 9900 evaluations.
	d := panicAtEval{at: 2000, calls: new(atomic.Int64)}
	_, _, _ = AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: d, Workers: 4})
}

// TestAgglomerateCancelLeaksNoGoroutines cancels mid-run and checks the
// pool's helper goroutines are gone once the engine returns.
func TestAgglomerateCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		s, tbl := randomSpace(t, rand.New(rand.NewSource(int64(trial))), 150)
		opt := AggloOptions{K: 6, Distance: D3{}, Workers: 8}
		clean := newPollCtx(0)
		if _, _, err := AgglomerateStatsCtx(clean, s, tbl, opt); err != nil {
			t.Fatal(err)
		}
		_, _, err := AgglomerateStatsCtx(newPollCtx(clean.polls.Load()/2), s, tbl, opt)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v", trial, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestAgglomerateCtxCancelDuringInitScanIsPrompt bounds the reaction
// latency of a cancellation landing inside the O(n²) init build.
func TestAgglomerateCtxCancelDuringInitScanIsPrompt(t *testing.T) {
	// ADT's 400 records hold 399 distinct tuples (the random table's 64
	// possible tuples would leave the build two blocks of classes).
	s, tbl := adultSpace(t, 400)
	// The init build polls once per block of initBlock tuple classes and
	// once per tile, about 30 times for 400 classes, so poll 20 falls
	// inside it.
	ctx := newPollCtx(20)
	_, st, err := AgglomerateStatsCtx(ctx, s, tbl, AggloOptions{K: 10, Distance: D3{}, Workers: 2})
	elapsed := time.Since(ctx.at)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st.Merges != 0 {
		t.Fatalf("cancellation at poll 20 landed after the init build (%d merges)", st.Merges)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 500ms", elapsed)
	}
}

// TestTrieInitCancel cancels a run above the crossover, whose initial
// lists come from the trie search, at polls spread over that search (one
// per record) and right after it, at workers 1 and 2: each run must
// return context.Canceled with no clusters.
func TestTrieInitCancel(t *testing.T) {
	n := nnTrieRecords
	s, tbl := adultSpace(t, n)
	for _, w := range []int{1, 2} {
		for _, at := range []int64{1, 2, int64(n / 2), int64(n), int64(n + 3)} {
			clusters, _, err := AgglomerateStatsCtx(newPollCtx(at), s, tbl, AggloOptions{K: 10, Distance: D3{}, Workers: w})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d cancelled at poll %d: err = %v, want context.Canceled", w, at, err)
			}
			if clusters != nil {
				t.Fatalf("workers=%d cancelled at poll %d: partial clusters returned", w, at)
			}
		}
	}
}
