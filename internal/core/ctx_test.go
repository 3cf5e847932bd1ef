package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"kanon/internal/par"
)

// pollCtx is a live context whose Err reports context.Canceled from its
// cancelAt-th call on (0 never cancels). Every pipeline polls for
// cancellation through par.Done, which calls Err, so polls counts a run's
// cancellation checks and cancelAt picks the check that first sees the
// cancellation.
type pollCtx struct {
	context.Context
	cancelAt int64
	polls    atomic.Int64
}

func newPollCtx(cancelAt int64) *pollCtx {
	return &pollCtx{Context: context.Background(), cancelAt: cancelAt}
}

// Err implements context.Context.
func (c *pollCtx) Err() error {
	if p := c.polls.Add(1); c.cancelAt > 0 && p >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// cancelSweep runs run once under a context that never cancels, to count
// its polls, and then once per poll with the cancellation landing on that
// poll. Every cancelled run must return context.Canceled and no output;
// run reports whether it got output.
func cancelSweep(t *testing.T, run func(ctx context.Context) (output bool, err error)) {
	t.Helper()
	clean := newPollCtx(0)
	if output, err := run(clean); err != nil || !output {
		t.Fatalf("clean run: output %v, err %v", output, err)
	}
	polls := clean.polls.Load()
	if polls == 0 {
		t.Fatal("clean run never polled its context")
	}
	for at := int64(1); at <= polls; at++ {
		output, err := run(newPollCtx(at))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: err = %v, want context.Canceled", at, polls, err)
		}
		if output {
			t.Fatalf("cancelled at poll %d of %d: partial output returned", at, polls)
		}
	}
}

// TestK1CancelAtRecordSite cancels Algorithms 3 and 4 at every poll of a
// clean run in turn.
func TestK1CancelAtRecordSite(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(11)), 30, "lm")
	t.Run("nearest", func(t *testing.T) {
		cancelSweep(t, func(ctx context.Context) (bool, error) {
			g, err := K1NearestCtx(ctx, s, tbl, 4, 1)
			return g != nil, err
		})
	})
	t.Run("expand", func(t *testing.T) {
		cancelSweep(t, func(ctx context.Context) (bool, error) {
			g, err := K1ExpandCtx(ctx, s, tbl, 4, 1)
			return g != nil, err
		})
	})
}

// panicCtx is a live context whose Err panics with the context itself at
// its hit-th call. K1 polls ctx once per record inside its pool spans, so
// a hit past the pool's own entry poll lands inside a record scan.
type panicCtx struct {
	context.Context
	hit   int64
	polls atomic.Int64
}

// Err implements context.Context.
func (c *panicCtx) Err() error {
	if c.polls.Add(1) == c.hit {
		panic(c)
	}
	return nil
}

// TestK1InjectedPanicIsContained panics inside a record scan of the
// parallel (k,1) pipeline, through a context whose seventh poll panics,
// and asserts the panic surfaces as a recoverable *par.TaskPanic carrying
// the context's value, not a process abort.
func TestK1InjectedPanicIsContained(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(13)), 40, "lm")
	ctx := &panicCtx{Context: context.Background(), hit: 7}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic in a record scan did not propagate")
		}
		tp, ok := v.(*par.TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *par.TaskPanic", v)
		}
		if tp.Value != ctx {
			t.Fatalf("panic value %v is not the context's", tp.Value)
		}
	}()
	_, _ = K1NearestCtx(ctx, s, tbl, 4, 4)
}

// TestMake1KCancelAtRecordSite cancels Algorithm 5, plain and under a
// distinct 2-diversity constraint, at every poll of a clean run in turn.
// Algorithm 5 widens its input in place, so every run gets a fresh copy.
func TestMake1KCancelAtRecordSite(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(14)), 30, "lm")
	g, err := K1NearestCtx(nil, s, tbl, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("plain", func(t *testing.T) {
		cancelSweep(t, func(ctx context.Context) (bool, error) {
			out, err := Make1KCtx(ctx, s, tbl, g.Clone(), 3)
			return out != nil, err
		})
	})
	t.Run("constrained", func(t *testing.T) {
		sens := sensitiveFor(rand.New(rand.NewSource(14)), tbl.Len(), 3)
		cancelSweep(t, func(ctx context.Context) (bool, error) {
			out, err := make1KConstrained(ctx, s, tbl, g.Clone(), 3, distinctL(2), sens)
			return out != nil, err
		})
	})
}

// TestForestCancelAtRoundSite cancels the forest baseline at every poll of
// a clean run in turn, its Borůvka rounds included.
func TestForestCancelAtRoundSite(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(15)), 40, "lm")
	cancelSweep(t, func(ctx context.Context) (bool, error) {
		g, clusters, err := ForestCtx(ctx, s, tbl, 8)
		return g != nil || clusters != nil, err
	})
}

// TestGlobalCancelAtStepSite cancels Algorithm 6 at every poll of a clean
// run in turn. The input (seed 4, n=40, a (4,4)-anonymization upgraded to
// k=5) performs 10 widening steps when run to completion, so the sweep
// lands inside the widening loop as well as before it. Algorithm 6 widens
// its input in place, so every run gets a fresh copy.
func TestGlobalCancelAtStepSite(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(4)), 40, "lm")
	g, err := KKAnonymizeCtx(nil, s, tbl, 4, K1ByNearest, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancelSweep(t, func(ctx context.Context) (bool, error) {
		out, _, err := MakeGlobal1KCtx(ctx, s, tbl, g.Clone(), 5)
		return out != nil, err
	})
}
