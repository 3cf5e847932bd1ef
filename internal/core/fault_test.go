package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"kanon/internal/fault"
	"kanon/internal/par"
)

// TestK1CancelAtRecordSite injects a cancellation at the per-record site
// of Algorithms 3 and 4 and asserts a prompt ctx.Err() with no partial
// output.
func TestK1CancelAtRecordSite(t *testing.T) {
	algs := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"nearest", func(ctx context.Context) error {
			s, tbl := testSpace(t, rand.New(rand.NewSource(11)), 30, "lm")
			g, err := K1NearestCtx(ctx, s, tbl, 4, 1)
			if g != nil {
				t.Error("cancelled K1Nearest returned a partial table")
			}
			return err
		}},
		{"expand", func(ctx context.Context) error {
			s, tbl := testSpace(t, rand.New(rand.NewSource(12)), 30, "lm")
			g, err := K1ExpandCtx(ctx, s, tbl, 4, 1)
			if g != nil {
				t.Error("cancelled K1Expand returned a partial table")
			}
			return err
		}},
	}
	for _, alg := range algs {
		t.Run(alg.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := fault.NewInjector(fault.Rule{Site: SiteK1Record, Hit: 5, Action: fault.Cancel}).
				OnCancel(cancel)
			defer fault.Activate(in)()
			if err := alg.run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if in.Hits(SiteK1Record) < 5 {
				t.Fatalf("site hit %d times, injection at 5 never fired", in.Hits(SiteK1Record))
			}
		})
	}
}

// TestK1InjectedPanicIsContained asserts a panic at the record site of
// the parallel (k,1) pipeline surfaces as a recoverable *par.TaskPanic
// carrying the injection, not a process abort.
func TestK1InjectedPanicIsContained(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(13)), 40, "lm")
	in := fault.NewInjector(fault.Rule{Site: SiteK1Record, Hit: 7, Action: fault.Panic})
	defer fault.Activate(in)()

	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("injected panic did not propagate")
		}
		tp, ok := v.(*par.TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *par.TaskPanic", v)
		}
		var inj *fault.Injected
		if !errors.As(tp, &inj) || inj.Site != SiteK1Record {
			t.Fatalf("panic value %v does not carry the injection", tp.Value)
		}
	}()
	_, _ = K1NearestCtx(nil, s, tbl, 4, 4)
}

// TestMake1KCancelAtRecordSite injects a cancellation into Algorithm 5's
// per-record widening loop.
func TestMake1KCancelAtRecordSite(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(14)), 30, "lm")
	g, err := K1NearestCtx(nil, s, tbl, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := fault.NewInjector(fault.Rule{Site: SiteMake1KRecord, Hit: 3, Action: fault.Cancel}).
		OnCancel(cancel)
	defer fault.Activate(in)()

	out, err := Make1KCtx(ctx, s, tbl, g, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled Make1K returned a table")
	}
	if in.Hits(SiteMake1KRecord) < 3 {
		t.Fatalf("site hit %d times, injection at 3 never fired", in.Hits(SiteMake1KRecord))
	}
}

// TestForestCancelAtRoundSite injects a cancellation at the Borůvka-round
// boundary of the forest baseline.
func TestForestCancelAtRoundSite(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(15)), 40, "lm")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := fault.NewInjector(fault.Rule{Site: SiteForestRound, Hit: 1, Action: fault.Cancel}).
		OnCancel(cancel)
	defer fault.Activate(in)()

	g, clusters, err := ForestCtx(ctx, s, tbl, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g != nil || clusters != nil {
		t.Fatal("cancelled Forest returned partial output")
	}
	if in.Hits(SiteForestRound) < 1 {
		t.Fatal("round site never fired")
	}
}

// TestGlobalCancelAtStepSite injects a cancellation at Algorithm 6's
// widening-step boundary. The input (seed 4, n=40, a (4,4)-anonymization
// upgraded to k=5) performs 10 widening steps when run to completion, so
// cancelling at the second step is strictly mid-loop.
func TestGlobalCancelAtStepSite(t *testing.T) {
	s, tbl := testSpace(t, rand.New(rand.NewSource(4)), 40, "lm")
	g, err := KKAnonymizeCtx(nil, s, tbl, 4, K1ByNearest, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := fault.NewInjector(fault.Rule{Site: SiteGlobalStep, Hit: 2, Action: fault.Cancel}).
		OnCancel(cancel)
	defer fault.Activate(in)()

	out, _, err := MakeGlobal1KCtx(ctx, s, tbl, g, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled MakeGlobal1K returned a table")
	}
	if in.Hits(SiteGlobalStep) < 2 {
		t.Fatalf("step site hit %d times, injection at 2 never fired", in.Hits(SiteGlobalStep))
	}
}
