package kanon

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestAnonymizeContextCancelPrompt is the acceptance check for the
// cancellation tentpole: a default-config run on the synthetic ADT
// table must return ctx.Err() within 500ms of cancellation, with no
// partial output.
func TestAnonymizeContextCancelPrompt(t *testing.T) {
	tbl := Adult(2000, 42)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var cancelledAt time.Time
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancelledAt = time.Now()
		cancel()
	}()

	res, err := AnonymizeContext(ctx, tbl, Options{K: 10})
	elapsed := time.Since(cancelledAt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a partial result")
	}
	if cancelledAt.IsZero() {
		t.Skip("run finished before the cancel landed; table too small for this machine")
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("returned %v after cancellation, want < 500ms", elapsed)
	}
}

// TestAnonymizeContextPreCancelled checks the fast path across every
// notion dispatched by the facade.
func TestAnonymizeContextPreCancelled(t *testing.T) {
	tbl := Adult(200, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opt := range []Options{
		{K: 5, Notion: NotionK},
		{K: 5, Notion: NotionK, Algorithm: AlgForest},
		{K: 5, Notion: NotionK, Algorithm: AlgFullDomain},
		{K: 5, Notion: NotionKK},
		{K: 5, Notion: NotionKK, Algorithm: AlgNearest},
		{K: 5, Notion: NotionGlobal1K},
		{K: 5, Notion: NotionK, MaxChunk: 64},
	} {
		res, err := AnonymizeContext(ctx, tbl, opt)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("opts %+v: res=%v err=%v, want nil result and context.Canceled", opt, res, err)
		}
	}
}

// TestAnonymizeContextNilMatchesPlain asserts that a nil context is the
// identity: AnonymizeContext(nil, ...) behaves exactly like Anonymize.
func TestAnonymizeContextNilMatchesPlain(t *testing.T) {
	tbl := Adult(300, 7)
	a, err := Anonymize(tbl, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnonymizeContext(nil, tbl, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Loss() != b.Loss() || a.Len() != b.Len() {
		t.Fatalf("nil-ctx run differs: loss %v vs %v, %d vs %d rows",
			a.Loss(), b.Loss(), a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("row %d col %d differs: %q vs %q", i, j, ra[j], rb[j])
			}
		}
	}
}
