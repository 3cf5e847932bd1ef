package core

import (
	"context"
	"fmt"
	"math"

	"kanon/internal/cluster"
	"kanon/internal/fault"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/table"
)

// K1Nearest runs Algorithm 3: (k,1)-anonymization by nearest neighbours.
// Every record R_i is replaced by the closure of {R_i} together with the
// k−1 records closest to it under the pair cost d({R_i, R_j}). The output
// approximates the optimal (k,1)-anonymization within a factor of k−1
// (Proposition 5.1). Records are processed independently in parallel on a
// machine-sized pool; K1NearestWorkers controls the pool size.
func K1Nearest(s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, error) {
	return K1NearestWorkers(s, tbl, k, 0)
}

// K1NearestWorkers is K1Nearest on a pool of Workers(workers) workers.
// Every record's neighbourhood is computed independently, so the worker
// count never changes the output.
func K1NearestWorkers(s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, error) {
	return K1NearestCtx(nil, s, tbl, k, workers)
}

// K1NearestCtx is K1NearestWorkers under a context: record scans stop at
// the next record boundary once ctx is done and ctx.Err() is returned with
// no partial output. A nil ctx disables cancellation.
func K1NearestCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseK1)()
	g := table.NewGen(tbl.Schema, n)
	p := par.New(workers)
	defer p.Close()
	err := p.EachCtx(ctx, n, func(i int) {
		fault.Inject(SiteK1Record)
		// One neighbourhood scan per record: n−1 pair-cost evaluations.
		o.Event(obs.KindScan, PhaseK1, int64(n-1))
		// Keep the k−1 smallest pair costs; ties broken by lower index.
		rows := newCostRows(s)
		rows.load(tbl.Records[i])
		near := cheapest{m: k - 1}
		for j, rec := range tbl.Records {
			if j != i {
				near.offer(j, rows.pairCost(rec))
			}
		}
		members := make([]int, 0, k)
		members = append(members, i)
		for _, c := range near.best {
			members = append(members, c.j)
		}
		copy(g.Records[i], s.ClosureOf(tbl, members))
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// K1Expand runs Algorithm 4: (k,1)-anonymization by greedy expansion.
// For every record R_i, a cluster S_i = {R_i} is grown by repeatedly adding
// the record R_j ∉ S_i minimizing dist(S_i, R_j) = d(S_i ∪ {R_j}) − d(S_i),
// until |S_i| = k; R̄_i is the closure of S_i. In the paper's experiments
// this consistently beats Algorithm 3 despite lacking its approximation
// guarantee. Records are processed independently in parallel on a
// machine-sized pool; K1ExpandWorkers controls the pool size.
func K1Expand(s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, error) {
	return K1ExpandWorkers(s, tbl, k, 0)
}

// K1ExpandWorkers is K1Expand on a pool of Workers(workers) workers.
// Every record's cluster is grown independently, so the worker count never
// changes the output.
func K1ExpandWorkers(s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, error) {
	return K1ExpandCtx(nil, s, tbl, k, workers)
}

// K1ExpandCtx is K1ExpandWorkers under a context: record scans stop at the
// next record boundary once ctx is done and ctx.Err() is returned with no
// partial output. A nil ctx disables cancellation.
func K1ExpandCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseK1)()
	g := table.NewGen(tbl.Schema, n)
	p := par.New(workers)
	defer p.Close()
	err := p.EachCtx(ctx, n, func(i int) {
		fault.Inject(SiteK1Record)
		// One greedy-growth scan per record: (k−1) sweeps over the
		// out-of-cluster records.
		evals := int64(0)
		inS := make([]bool, n)
		inS[i] = true
		closure := s.LeafClosure(tbl.Records[i])
		rows := newCostRows(s)
		for size := 1; size < k; size++ {
			// d(S ∪ {R_j}) − d(S): the subtrahend is constant over j, so
			// minimizing d(S ∪ {R_j}) suffices. The sweep reads the cost
			// rows of S's closure, loaded once.
			rows.load(closure)
			bestJ, bestD := -1, math.Inf(1)
			for j, rec := range tbl.Records {
				if inS[j] {
					continue
				}
				if d := rows.pairCost(rec); d < bestD {
					bestJ, bestD = j, d
				}
				evals++
			}
			inS[bestJ] = true
			widen(s, closure, tbl.Records[bestJ])
		}
		copy(g.Records[i], closure)
		o.Event(obs.KindScan, PhaseK1, evals)
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func checkK1Args(n, k int) error {
	if k < 1 {
		return fmt.Errorf("core: k must be ≥ 1, got %d", k)
	}
	if k > n {
		return fmt.Errorf("core: k=%d exceeds table size n=%d", k, n)
	}
	return nil
}
