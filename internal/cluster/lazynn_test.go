package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// TestHeapPopTotalOrder pins the determinism core of DESIGN.md §17: the
// pop sequence is the sorted (d, row, wit, kind, gen) order of the pushed
// entries, whatever the push order.

// depths are the neighbour-cache depths nnDepth can pick.
var depths = [2]int32{nnShallowDepth, nnListCap}

func TestHeapPopTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ents := make([]heapEnt, 0, 64)
	for i := 0; i < 64; i++ {
		ents = append(ents, heapEnt{
			d:    float64(rng.Intn(4)), // few distinct distances: ties fall through the id fields
			row:  int32(rng.Intn(4)),
			wit:  int32(rng.Intn(4)),
			gen:  uint32(i),
			kind: uint8(i % 2),
		})
	}
	want := append([]heapEnt(nil), ents...)
	sort.Slice(want, func(i, j int) bool { return entLess(want[i], want[j]) })
	for trial := 0; trial < 10; trial++ {
		e := &Engine{}
		for _, pi := range rng.Perm(len(ents)) {
			e.nnHeap = append(e.nnHeap, ents[pi])
			h := e.nnHeap
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !entLess(h[i], h[p]) {
					break
				}
				h[i], h[p] = h[p], h[i]
				i = p
			}
		}
		for i := range want {
			got, ok := e.heapPop()
			if !ok {
				t.Fatalf("trial %d: heap empty after %d pops, want %d", trial, i, len(want))
			}
			if got != want[i] {
				t.Fatalf("trial %d pop %d = %+v, want %+v", trial, i, got, want[i])
			}
		}
	}
}

// TestNNListOrderIndependent checks the fold primitive of the unordered
// sharded scans: an nnList's top-k set AND its discard bound must not
// depend on the order candidates are offered in, nor on how the candidate
// set is partitioned into span-local partials merged afterwards — the two
// invariants worker-count invariance rides on. Both depths an engine can
// pick are exercised.
func TestNNListOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	snapshot := func(l *nnList) [2*nnListCap + 2]float64 {
		var s [2*nnListCap + 2]float64
		for k := int32(0); k < l.n; k++ {
			s[2*k], s[2*k+1] = l.d[k], float64(l.id[k])
		}
		for k := l.n; k < nnListCap; k++ {
			s[2*k] = math.Inf(1)
		}
		s[2*nnListCap], s[2*nnListCap+1] = l.ubD, float64(l.ubID)
		return s
	}
	for trial := 0; trial < 400; trial++ {
		depth := depths[trial%2]
		n := 1 + rng.Intn(3*nnListCap)
		ids := rng.Perm(64)[:n]
		ds := make([]float64, n)
		for i := range ds {
			ds[i] = float64(rng.Intn(4)) // force distance ties
		}
		var want [2*nnListCap + 2]float64
		for p := 0; p < 20; p++ {
			var l nnList
			l.reset(depth)
			if p%2 == 0 {
				// Flat fold in a random order.
				for _, i := range rng.Perm(n) {
					l.offer(ds[i], int32(ids[i]))
				}
			} else {
				// Random partition into span-local partials, merged in a
				// random order.
				perm := rng.Perm(n)
				parts := make([]nnList, 1+rng.Intn(4))
				for pi := range parts {
					parts[pi].reset(depth)
				}
				for _, i := range perm {
					parts[rng.Intn(len(parts))].offer(ds[i], int32(ids[i]))
				}
				for _, pi := range rng.Perm(len(parts)) {
					l.mergeFrom(&parts[pi])
				}
			}
			got := snapshot(&l)
			if p == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("trial %d fold %d: order changed the list: %v vs %v", trial, p, got, want)
			}
		}
	}
}

// TestNNListFastRejectExact replays random operation sequences through
// offer, whose inlined guard returns early, and through insert, the full
// path alone: offers drawn from few distances (ties) with ±Inf among them,
// and NaN in every other trial, and mergeFrom folds of partials built the
// same way. After every step both lists must hold the same (set, bound),
// bit for bit, and in a NaN-free trial the bound's distance must not be
// below the tail's, which makes the bound alone decide the guard. (The
// engine offers to a list only between its reset and its first pruneDead:
// a pruned list heals by a rescan from a reset.) Both depths an engine can
// pick are exercised.
func TestNNListFastRejectExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	vals := []float64{0, 1, 1, 2, 3, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN()}
	slowMerge := func(l, o *nnList) {
		for k := int32(0); k < o.n; k++ {
			l.insert(o.d[k], o.id[k])
		}
		if lexLess(o.ubD, o.ubID, l.ubD, l.ubID) {
			l.ubD, l.ubID = o.ubD, o.ubID
		}
	}
	bits := func(l *nnList) []uint64 {
		out := []uint64{uint64(l.n), math.Float64bits(l.ubD), uint64(l.ubID)}
		for k := int32(0); k < l.n; k++ {
			out = append(out, math.Float64bits(l.d[k]), uint64(l.id[k]))
		}
		return out
	}
	for trial := 0; trial < 800; trial++ {
		withNaN, depth := trial%2 == 1, depths[trial/2%2]
		cand := func() (float64, int32) {
			nv := len(vals) - 1
			if withNaN {
				nv++
			}
			return vals[rng.Intn(nv)], int32(rng.Intn(24))
		}
		var fast, slow nnList
		fast.reset(depth)
		slow.reset(depth)
		for step := 0; step < 60; step++ {
			if rng.Intn(4) != 0 {
				d, id := cand()
				fast.offer(d, id)
				slow.insert(d, id)
			} else {
				var pf, ps nnList
				pf.reset(depth)
				ps.reset(depth)
				for m := rng.Intn(3 * nnListCap); m > 0; m-- {
					d, id := cand()
					pf.offer(d, id)
					ps.insert(d, id)
				}
				fast.mergeFrom(&pf)
				slowMerge(&slow, &ps)
			}
			if n := fast.n; !withNaN && n > 0 && fast.ubD < fast.d[n-1] {
				t.Fatalf("trial %d step %d: bound (%v, %d) below tail (%v, %d)",
					trial, step, fast.ubD, fast.ubID, fast.d[n-1], fast.id[n-1])
			}
			if f, sl := bits(&fast), bits(&slow); !slices.Equal(f, sl) {
				t.Fatalf("trial %d step %d: guarded list %v, full path %v", trial, step, f, sl)
			}
		}
	}
}

// hubSpace builds the known worst case of the NN cache: one flat attribute
// with all-distinct values makes every pairwise distance identical under
// D2, so the lowest live id is everyone's nearest neighbour and every
// merge kills the cached nearest neighbour of every live cluster.
func hubSpace(t *testing.T, n int) (*Space, *table.Table) {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprint(i)
	}
	schema := table.MustSchema(table.MustAttribute("v", names))
	tbl := table.New(schema)
	for i := 0; i < n; i++ {
		tbl.MustAppend(table.Record{i})
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.Flat(n)}
	s, err := NewSpace(hiers, loss.NewLM(hiers))
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// TestLazyHubWorstCase seeds the adversarial hub regime and asserts the
// lazy path's cost bound: a per-cluster nearest-neighbour sweep would
// rescan every live cluster on every merge here (Θ(live²) per merge, Θ(n³)
// total distance evaluations), while the lazy path heals exactly the one
// cluster it pops — merge cost O(live·r), total O(n²) — and still returns
// the naive oracle's clustering.
func TestLazyHubWorstCase(t *testing.T) {
	const n = 300
	s, tbl := hubSpace(t, n)
	opt := AggloOptions{K: 2, Distance: D2{}}
	assertMatchesOracle(t, "hub", s, tbl, opt)
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		_, st, err := AgglomerateStatsCtx(nil, s, tbl, opt)
		if err != nil {
			t.Fatal(err)
		}
		// O(live·r) per merge: the init costs n(n−1) evaluations, and each
		// merge at most one O(live) rescan plus O(1) heap work.
		if limit := int64(3 * n * n); st.DistEvals > limit {
			t.Errorf("workers=%d: DistEvals = %d, want ≤ %d (O(n²) total)", workers, st.DistEvals, limit)
		}
		if st.DeadNNRescans > st.Merges {
			t.Errorf("workers=%d: %d dead-NN rescans for %d merges, want ≤ 1 per merge",
				workers, st.DeadNNRescans, st.Merges)
		}
	}
}
