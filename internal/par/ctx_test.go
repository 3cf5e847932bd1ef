package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachCtxNilContextRunsEverything: a nil context never reports done,
// so both entries run every index and return nil.
func TestEachCtxNilContextRunsEverything(t *testing.T) {
	p := New(4)
	defer p.Close()
	var ran atomic.Int64
	if err := p.EachCtx(nil, 1000, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("EachCtx(nil ctx) = %v", err)
	}
	if _, err := p.ForSpansCtx(nil, 1000, 1, func(lo, hi, _ int) { ran.Add(int64(hi - lo)) }); err != nil {
		t.Fatalf("ForSpansCtx(nil ctx) = %v", err)
	}
	if ran.Load() != 2000 {
		t.Fatalf("ran %d of 2000", ran.Load())
	}
}

func TestEachCtxAlreadyCancelled(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 1000} {
		var ran atomic.Int64
		err := p.EachCtx(ctx, n, func(i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("n=%d: %d indices ran under a pre-cancelled context", n, ran.Load())
		}
	}
}

func TestEachCtxStopsHandingOutIndices(t *testing.T) {
	const workers = 4
	p := New(workers)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := p.EachCtx(ctx, 10000, func(i int) {
		// The 5th task cancels; every later one blocks until the cancel,
		// so no worker can finish a task after the 5th before the context
		// is done, however the scheduler interleaves them.
		switch c := ran.Add(1); {
		case c == 5:
			cancel()
		case c > 5:
			<-ctx.Done()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker sees the cancel before taking another index once its
	// task after the 5th returns, so at most one such task per worker runs.
	if got := ran.Load(); got > 5+workers {
		t.Fatalf("%d indices ran, want at most %d", got, 5+workers)
	}
}

func TestForSpansCtxCancelMidSpan(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spans, err := p.ForSpansCtx(ctx, 100, 1, func(lo, hi, span int) {
		t.Error("span ran under a pre-cancelled context")
	})
	if spans != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("spans=%d err=%v", spans, err)
	}
}

// TestPanicInTaskIsContained panics inside one task of each pool entry
// and asserts the panic reaches the caller: raw on the sequential path,
// as a *TaskPanic carrying the value once it crossed the pool. The span
// input is the ForSpansCtx path of Algorithms 3 and 4, and its panic sits
// in span 1, so it only fires when the range was split.
func TestPanicInTaskIsContained(t *testing.T) {
	p := New(4)
	defer p.Close()
	each := func(n int) func() {
		return func() {
			_ = p.EachCtx(context.Background(), n, func(i int) {
				if i == n/2 {
					panic("boom")
				}
			})
		}
	}
	for _, tc := range []struct {
		name    string
		crossed bool // the panic crossed the pool
		run     func()
	}{
		{"EachCtx/sequential", false, each(1)},
		{"EachCtx/parallel", true, each(100)},
		{"ForSpansCtx/spans>1", true, func() {
			_, _ = p.ForSpansCtx(context.Background(), 100, 1, func(lo, hi, span int) {
				if span == 1 {
					panic("boom")
				}
			})
		}},
	} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("%s: panic did not propagate to the caller", tc.name)
				}
				if tc.crossed {
					tp, ok := v.(*TaskPanic)
					if !ok {
						t.Fatalf("%s: recovered %T, want *TaskPanic", tc.name, v)
					}
					if tp.Value != "boom" {
						t.Fatalf("%s: TaskPanic carries %v, want the task's panic value", tc.name, tp.Value)
					}
				}
			}()
			tc.run()
		}()
	}
	// The pool must remain usable after containing a panic.
	var ran atomic.Int64
	_ = p.EachCtx(nil, 100, func(i int) { ran.Add(1) })
	if ran.Load() != 100 {
		t.Fatalf("pool broken after panic: ran %d of 100", ran.Load())
	}
}

func TestTaskPanicUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	p := New(4)
	defer p.Close()
	defer func() {
		v := recover()
		tp, ok := v.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *TaskPanic", v)
		}
		if !errors.Is(tp, sentinel) {
			t.Fatal("errors.Is does not reach through TaskPanic")
		}
	}()
	p.ForSpans(100, 1, func(lo, hi, span int) { panic(sentinel) })
}

// TestRecoverPanic pins the containment helper outside the pool: an error
// passes through, a panic on the calling goroutine becomes a *TaskPanic
// carrying its value, and a *TaskPanic re-raised by a pool keeps its value
// and stack, not wrapped a second time.
func TestRecoverPanic(t *testing.T) {
	sentinel := errors.New("sentinel")
	if err := Recover(func() error { return sentinel }); err != sentinel {
		t.Fatalf("error return: got %v, want the sentinel", err)
	}
	err := Recover(func() error { panic(sentinel) })
	tp, ok := err.(*TaskPanic)
	if !ok || tp.Value != sentinel || len(tp.Stack) == 0 || !errors.Is(err, sentinel) {
		t.Fatalf("direct panic: got %#v, want a *TaskPanic over the sentinel with a stack", err)
	}
	p := New(4)
	defer p.Close()
	var inner *TaskPanic
	err = Recover(func() error {
		defer func() {
			inner, _ = recover().(*TaskPanic)
			panic(inner)
		}()
		p.ForSpans(8, 1, func(lo, hi, span int) { panic("pool fault") })
		return nil
	})
	tp, ok = err.(*TaskPanic)
	if inner == nil || !ok || tp.Value != "pool fault" || &tp.Stack[0] != &inner.Stack[0] {
		t.Fatalf("pool panic: got %#v, want the pool's own value and stack %#v", err, inner)
	}
}

func TestPanicDoesNotWedgeForSpans(t *testing.T) {
	p := New(8)
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }()
		p.ForSpans(1000, 1, func(lo, hi, span int) {
			if span == 1 {
				panic("boom")
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ForSpans did not return after a task panic")
	}
}

func TestCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		p := New(8)
		_ = p.EachCtx(nil, 100, func(i int) {})
		func() {
			defer func() { recover() }()
			_ = p.EachCtx(nil, 100, func(i int) {
				if i == 50 {
					panic("boom")
				}
			})
		}()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = p.EachCtx(ctx, 100, func(i int) {})
		p.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after Close", before, runtime.NumGoroutine())
}
