package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

// TestForCoversEveryIndexOnce checks that ForSpans hands every index of
// [0, n) to exactly one span, at pool sizes from the sequential one up;
// an empty range runs no span.
func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		if spans := p.ForSpans(0, 1, func(lo, hi, w int) { t.Error("span ran over an empty range") }); spans != 0 {
			t.Fatalf("workers=%d n=0: %d spans", workers, spans)
		}
		for _, n := range []int{1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 16, 512} {
				hits := make([]int32, n)
				p.ForSpans(n, grain, func(lo, hi, _ int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times", workers, n, grain, i, h)
					}
				}
			}
		}
		p.Close()
	}
}

// TestForSpansPartition checks that the spans are contiguous, ascending,
// cover [0, n) and respect the grain, at pool sizes from the sequential
// one up.
func TestForSpansPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		for _, n := range []int{1, 5, 16, 100, 1023} {
			for _, grain := range []int{1, 10, 200} {
				type span struct{ lo, hi int }
				var mu [8]atomic.Pointer[span]
				spans := p.ForSpans(n, grain, func(lo, hi, w int) {
					mu[w].Store(&span{lo, hi})
				})
				if spans < 1 || spans > workers {
					t.Fatalf("workers=%d n=%d grain=%d: %d spans", workers, n, grain, spans)
				}
				// Spans must be contiguous, ascending and cover [0, n).
				next := 0
				for w := 0; w < spans; w++ {
					s := mu[w].Load()
					if s == nil {
						t.Fatalf("workers=%d n=%d grain=%d: span %d never ran", workers, n, grain, w)
					}
					if s.lo != next || s.hi <= s.lo {
						t.Fatalf("workers=%d n=%d grain=%d: span %d = [%d,%d), want lo=%d", workers, n, grain, w, s.lo, s.hi, next)
					}
					next = s.hi
				}
				if next != n {
					t.Fatalf("workers=%d n=%d grain=%d: spans cover [0,%d), want [0,%d)", workers, n, grain, next, n)
				}
				// Grain is a lower bound on span size whenever it can be.
				if spans > 1 && n/spans < grain {
					t.Fatalf("workers=%d n=%d grain=%d: %d spans of ~%d < grain", workers, n, grain, spans, n/spans)
				}
			}
		}
		p.Close()
	}
}

func TestForSpansDeterministicSplit(t *testing.T) {
	p := New(4)
	defer p.Close()
	collect := func() []int {
		var bounds []int
		var mu [4]atomic.Int64
		spans := p.ForSpans(100, 1, func(lo, hi, w int) { mu[w].Store(int64(lo)<<32 | int64(hi)) })
		for w := 0; w < spans; w++ {
			v := mu[w].Load()
			bounds = append(bounds, int(v>>32), int(v&0xffffffff))
		}
		return bounds
	}
	first := collect()
	for trial := 0; trial < 10; trial++ {
		got := collect()
		if len(got) != len(first) {
			t.Fatal("span count changed between runs")
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatal("span boundaries changed between runs")
			}
		}
	}
}

func TestEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 33, 500} {
			hits := make([]int32, n)
			if err := p.EachCtx(nil, n, func(i int) { atomic.AddInt32(&hits[i], 1) }); err != nil {
				t.Fatalf("workers=%d n=%d: EachCtx(nil ctx) = %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
		p.Close()
	}
}

func TestPoolReuseAcrossCalls(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		p.ForSpans(100, 1, func(lo, hi, _ int) { total.Add(int64(hi - lo)) })
		_ = p.EachCtx(nil, 100, func(i int) { total.Add(1) })
	}
	if total.Load() != 10000 {
		t.Fatalf("total = %d, want 10000", total.Load())
	}
}
