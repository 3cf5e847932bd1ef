package core

import (
	"context"
	"fmt"

	"kanon/internal/cluster"
	"kanon/internal/fault"
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
	rows := newCostRows(s)
	var cheap cheapest
	var cands []int
	for i := 0; i < n; i++ {
		if ctxDone(ctx) {
			return nil, ctx.Err()
		}
		fault.Inject(SiteMake1KRecord)
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
		rows.load(ri)
		cheap.reset(need)
		cands = appendClear(cands[:0], consistent, n)
		for _, j := range cands {
			gj := g.Records[j]
			cheap.offer(j, rows.widenDelta(gj, gj))
		}
		for _, c := range cheap.best {
			x.widen(c.j, ri)
		}
		// One augmentation per deficient record; N is the number of
		// generalized records widened to cover it.
		o.Event(obs.KindAugment, PhaseMake1K, int64(need))
		o.Counter("core.make1k.deficient", 1)
	}
	return g, nil
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
