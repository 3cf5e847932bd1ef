package cluster

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"kanon/internal/fault"
	"kanon/internal/par"
)

// TestAgglomerateCtxCancelAtEverySite injects a context cancellation at
// each of the engine's fault sites in turn and asserts a prompt ctx.Err()
// with no partial output.
func TestAgglomerateCtxCancelAtEverySite(t *testing.T) {
	for _, tc := range []struct {
		site string
		hit  int64
	}{
		{SiteInitScan, 10},
		{SiteInitTile, 2},
		{SiteMerge, 5},
		{SiteHeapRepair, 1},
		{SiteAbsorb, 1},
	} {
		t.Run(tc.site, func(t *testing.T) {
			s, tbl := randomSpace(t, rand.New(rand.NewSource(9)), 120)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := fault.NewInjector(fault.Rule{Site: tc.site, Hit: tc.hit, Action: fault.Cancel}).
				OnCancel(cancel)
			defer fault.Activate(in)()

			// Workers 1 keeps site hit counts deterministic; Modified shrinks
			// clusters to exactly K, and 120 mod 7 != 0 leaves leftover
			// records, which forces the absorb pass.
			clusters, _, err := AgglomerateStatsCtx(ctx, s, tbl, AggloOptions{K: 7, Distance: D3{}, Workers: 1, Modified: true})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if clusters != nil {
				t.Fatal("cancelled run returned partial clusters")
			}
			if in.Hits(tc.site) < tc.hit {
				t.Fatalf("site %s hit %d times, injection at %d never fired", tc.site, in.Hits(tc.site), tc.hit)
			}
		})
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

// TestAgglomerateCtxNilMatchesPlain asserts the nil-context path is the
// identity: AgglomerateCtx(nil, ...) produces exactly Agglomerate(...).
func TestAgglomerateCtxNilMatchesPlain(t *testing.T) {
	s, tbl := randomSpace(t, rand.New(rand.NewSource(3)), 80)
	a, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D3{}})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D3{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("%d vs %d clusters", len(a), len(b))
	}
	for i := range a {
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

// TestAgglomerateInjectedPanicPropagates asserts a panic inside the
// engine's parallel init scan arrives at the caller as a recoverable
// *par.TaskPanic carrying the injected value — not a process abort.
func TestAgglomerateInjectedPanicPropagates(t *testing.T) {
	s, tbl := randomSpace(t, rand.New(rand.NewSource(4)), 100)
	in := fault.NewInjector(fault.Rule{Site: SiteInitScan, Hit: 20, Action: fault.Panic})
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
		if !errors.As(tp, &inj) || inj.Site != SiteInitScan {
			t.Fatalf("panic value %v does not carry the injection", tp.Value)
		}
	}()
	_, _, _ = AgglomerateStatsCtx(nil, s, tbl, AggloOptions{K: 5, Distance: D3{}, Workers: 4})
}

// TestAgglomerateCancelLeaksNoGoroutines cancels mid-run and checks the
// pool's helper goroutines are gone once the engine returns.
func TestAgglomerateCancelLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		s, tbl := randomSpace(t, rand.New(rand.NewSource(int64(trial))), 150)
		ctx, cancel := context.WithCancel(context.Background())
		in := fault.NewInjector(fault.Rule{Site: SiteMerge, Hit: 3, Action: fault.Cancel}).
			OnCancel(cancel)
		deactivate := fault.Activate(in)
		_, _, err := AgglomerateStatsCtx(ctx, s, tbl, AggloOptions{K: 6, Distance: D3{}, Workers: 8})
		deactivate()
		cancel()
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
	s, tbl := randomSpace(t, rand.New(rand.NewSource(5)), 400)
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	in := fault.NewInjector(fault.Rule{Site: SiteInitScan, Hit: 50, Action: fault.Cancel}).
		OnCancel(func() { cancelled = time.Now(); cancel() })
	defer fault.Activate(in)()

	_, _, err := AgglomerateStatsCtx(ctx, s, tbl, AggloOptions{K: 10, Distance: D3{}, Workers: 2})
	elapsed := time.Since(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation took %v, want < 500ms", elapsed)
	}
}
