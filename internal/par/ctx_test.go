package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCtxNilContextRunsEverything(t *testing.T) {
	p := New(4)
	defer p.Close()
	var ran atomic.Int64
	if err := p.ForCtx(nil, 1000, 1, func(i int) { ran.Add(1) }); err != nil {
		t.Fatalf("ForCtx(nil ctx) = %v", err)
	}
	if ran.Load() != 1000 {
		t.Fatalf("ran %d of 1000", ran.Load())
	}
}

func TestForCtxAlreadyCancelled(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := p.ForCtx(ctx, 1000, 1, func(i int) { ran.Add(1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d indices ran under a pre-cancelled context", ran.Load())
	}
}

func TestEachCtxStopsHandingOutIndices(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := p.EachCtx(ctx, 10000, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// At most the indices already running on the workers may complete
	// after the cancel; with 4 workers that is a handful, not 10000.
	if ran.Load() > 100 {
		t.Fatalf("%d indices ran after cancellation", ran.Load())
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
			p.Each(n, func(i int) {
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
		{"Each/sequential", false, each(1)},
		{"Each/parallel", true, each(100)},
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
	p.Each(100, func(i int) { ran.Add(1) })
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
		p.Each(100, func(i int) {})
		func() {
			defer func() { recover() }()
			p.Each(100, func(i int) {
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
