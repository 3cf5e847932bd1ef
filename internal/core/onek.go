package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// Make1KCtx runs Algorithm 5, the (1,k)-anonymizer: it further
// generalizes records of g until every original record R_i is consistent
// with at least k generalized records. For each deficient R_i (consistent
// with ℓ < k generalized records), the k−ℓ non-consistent generalized
// records R̄_j minimizing the marginal cost c(R_i + R̄_j) − c(R̄_j) are
// replaced by R_i + R̄_j, the minimal generalized record covering both.
//
// Applied to a (k,1)-anonymization (Algorithm 3 or 4), the result is a
// (k,k)-anonymization: further generalization cannot reduce the number of
// original records a generalized record is consistent with, so the (k,1)
// property is preserved while (1,k) is established. g is modified in place
// and also returned.
//
// The per-record widening loop stops at the next record boundary once ctx
// is done and ctx.Err() is returned. Because Algorithm 5 widens g in
// place, a cancelled call leaves g partially widened — callers wanting
// all-or-nothing semantics (such as KKAnonymizeCtx) must discard g on
// error. A nil ctx disables cancellation.
//
// Both the marginal cost and consistency with R_i depend on R̄_j's tuple
// alone, so the rows are kept in classes of equal tuples (rowClasses): a
// deficient record prices each class it is not consistent with once
// (core.make1k.prices) and offers that class's k−ℓ lowest rows at the
// price, which selects exactly the rows a scan of every row would, ties
// to the lower j.
func Make1KCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) (*table.GenTable, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("core: generalized table has %d records, original has %d", g.Len(), n)
	}
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseMake1K)()
	x := newConsIndex(s, g)
	cl := newRowClasses(s, g)
	var cheap cheapest
	var near []int
	prices := int64(0)
	for i := 0; i < n; i++ {
		if ctxDone(ctx) {
			return nil, ctx.Err()
		}
		ri := tbl.Records[i]
		consistent := x.rowsOf(ri)
		have := count(consistent)
		if have >= k {
			continue
		}
		// Widen the need non-consistent generalized records of least
		// marginal cost c(R_i + R̄_j) − c(R̄_j), ties to the lower j. There
		// are at least n − have ≥ need of them, since k ≤ n.
		need := k - have
		cl.load(ri)
		cheap.reset(need)
		for c, j := range cl.head {
			if j < 0 || consistent[j>>6]&(1<<(j&63)) != 0 {
				continue
			}
			w := cl.price(c)
			prices++
			// Past a member it rejects, the selection rejects the rest.
			for m := 0; j >= 0 && m < need && cheap.offer(int(j), w); m++ {
				j = cl.next[j]
			}
		}
		// A widened row covers R_i, so a row already of its new tuple is
		// one of the rows consistent with R_i or one widened before it.
		near = appendSet(near[:0], consistent)
		for _, c := range cheap.best {
			x.widen(c.j, ri)
			cl.move(c.j, g, near)
			near = append(near, c.j)
		}
		// One augmentation per deficient record; N is the number of
		// generalized records widened to cover it.
		o.Event(obs.KindAugment, PhaseMake1K, int64(need))
		o.Counter("core.make1k.deficient", 1)
	}
	o.Counter("core.make1k.prices", prices)
	return g, nil
}

// rowClasses is Algorithm 5's partition of the released rows into classes
// of equal tuples, kept exact while rows widen. A class's members form a
// list in ascending row order, threaded through one array over the rows.
// It is Algorithm 5's own: the audit's row classes (internal/anonymity)
// are of a fixed release and share no code with it.
type rowClasses struct {
	s    *cluster.Space
	off  []int   // off[a]: where attribute a's nodes start in delta
	of   []int32 // of[j]: the class of row j
	head []int32 // head[c]: the lowest row of class c, or −1 when c is empty
	next []int32 // next[j]: the row after j in its class, or −1
	// tuple[c*r:(c+1)*r] is the tuple of class c, node x of attribute a
	// stored as off[a]+x.
	tuple []int32
	free  []int32 // empty classes, reused first
	// delta[off[a]+x] is CostAt(a, LCA(u_a, x)) − CostAt(a, x) for the
	// closure u of the last load.
	delta []float64
	row   []float64 // scratch for LCACostRow
}

// newRowClasses groups the rows of g by sorting them by (tuple, j).
func newRowClasses(s *cluster.Space, g *table.GenTable) *rowClasses {
	n, r := g.Len(), s.NumAttrs()
	cl := &rowClasses{s: s, off: make([]int, r+1), of: make([]int32, n), next: make([]int32, n)}
	for a, h := range s.Hiers {
		cl.off[a+1] = cl.off[a] + h.NumNodes()
	}
	cl.delta = make([]float64, cl.off[r])
	order := make([]int32, n)
	for j := range order {
		order[j] = int32(j)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if c := slices.Compare(g.Records[x], g.Records[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	same := func(p int) bool { return p > 0 && slices.Equal(g.Records[order[p-1]], g.Records[order[p]]) }
	classes := 0
	for p := range order {
		if !same(p) {
			classes++
		}
	}
	// Widening splits classes as well as merging them: leave an eighth
	// more room than the classes at the start.
	room := classes + classes/8
	cl.head = make([]int32, 0, room)
	cl.tuple = make([]int32, 0, room*r)
	for p, j := range order {
		cl.next[j] = -1
		if same(p) {
			cl.next[order[p-1]] = j
			cl.of[j] = cl.of[order[p-1]]
			continue
		}
		cl.of[j] = cl.add(g.Records[j], j)
	}
	return cl
}

// add opens a class of the given tuple holding the single row j.
func (cl *rowClasses) add(tuple table.GenRecord, j int32) int32 {
	var c int32
	if last := len(cl.free) - 1; last >= 0 {
		c, cl.free = cl.free[last], cl.free[:last]
		cl.head[c] = j
	} else {
		c = int32(len(cl.head))
		cl.head = append(cl.head, j)
		cl.tuple = slices.Grow(cl.tuple, len(tuple))[:len(cl.tuple)+len(tuple)]
	}
	t := cl.tuple[int(c)*len(tuple):]
	for a, x := range tuple {
		t[a] = int32(cl.off[a] + x)
	}
	return c
}

// load fills delta for the closure u: the per-attribute terms of
// costRows.widenDelta(t, t) for every tuple t.
func (cl *rowClasses) load(u []int) {
	for a, off := range cl.off[:len(u)] {
		cl.row = cl.s.LCACostRow(a, u[a], cl.row)
		for x, c := range cl.row {
			cl.delta[off+x] = c - cl.s.CostAt(a, x)
		}
	}
}

// price returns the marginal cost c(u + t) − c(t) of class c's tuple t
// for the closure u of the last load: costRows.widenDelta(t, t), each
// term the same difference, summed in the same order.
func (cl *rowClasses) price(c int) float64 {
	r := len(cl.off) - 1
	sum := 0.0
	for _, x := range cl.tuple[c*r : (c+1)*r] {
		sum += cl.delta[x]
	}
	return sum / float64(r)
}

// move takes row j, just widened in g, out of its class and into the
// class of its new tuple. The rows of near are the only ones that may hold
// that tuple already; without one, j opens a class.
func (cl *rowClasses) move(j int, g *table.GenTable, near []int) {
	old := cl.of[j]
	p := &cl.head[old]
	for *p != int32(j) {
		p = &cl.next[*p]
	}
	*p = cl.next[j]
	if cl.head[old] < 0 {
		cl.free = append(cl.free, old)
	}
	for _, q := range near {
		if slices.Equal(g.Records[q], g.Records[j]) {
			// Link j in ascending order.
			c := cl.of[q]
			p := &cl.head[c]
			for *p >= 0 && *p < int32(j) {
				p = &cl.next[*p]
			}
			cl.of[j], cl.next[j], *p = c, *p, int32(j)
			return
		}
	}
	cl.next[j] = -1
	cl.of[j] = cl.add(g.Records[j], int32(j))
}

// K1Algorithm selects which (k,1)-anonymizer seeds the (k,k) pipeline.
type K1Algorithm int

const (
	// K1ByExpansion is Algorithm 4, the paper's empirically better choice.
	K1ByExpansion K1Algorithm = iota
	// K1ByNearest is Algorithm 3, the (k−1)-approximation.
	K1ByNearest
)

// String implements fmt.Stringer.
func (a K1Algorithm) String() string {
	switch a {
	case K1ByExpansion:
		return "expansion"
	case K1ByNearest:
		return "nearest"
	default:
		return fmt.Sprintf("K1Algorithm(%d)", int(a))
	}
}

// KKAnonymizeCtx produces a (k,k)-anonymization by coupling a
// (k,1)-anonymizer (Algorithm 3 or 4, selected by alg) with the
// (1,k)-anonymizer (Algorithm 5), as prescribed in Section V-B. When cons
// holds a non-trivial constraint, the post-pass is the constrained
// Algorithm 5 (make1KConstrained) over the sensitive values, and every
// record's candidate set satisfies each constraint; otherwise it is
// Make1KCtx.
//
// The (k,1) stage runs on a pool of Workers(workers) workers. The
// Algorithm 5 post-pass is sequential (its in-place widenings are
// order-dependent), so the output is identical at any worker count. Both
// stages check for cancellation at record boundaries and return ctx.Err()
// with no partial output. A nil ctx disables cancellation.
func KKAnonymizeCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k int, alg K1Algorithm, cons []cluster.Constraint, sensitive []int, workers int) (*table.GenTable, error) {
	var g *table.GenTable
	var err error
	switch alg {
	case K1ByNearest:
		g, err = K1NearestCtx(ctx, s, tbl, k, workers)
	case K1ByExpansion:
		g, err = K1ExpandCtx(ctx, s, tbl, k, workers)
	default:
		return nil, fmt.Errorf("core: unknown (k,1) algorithm %d", alg)
	}
	if err != nil {
		return nil, err
	}
	if len(activeConstraints(cons)) > 0 {
		return make1KConstrained(ctx, s, tbl, g, k, cons, sensitive)
	}
	return Make1KCtx(ctx, s, tbl, g, k)
}
