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
// machine-sized pool; K1NearestCtx controls the pool size.
func K1Nearest(s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, error) {
	return K1NearestCtx(nil, s, tbl, k, 0)
}

// K1NearestCtx is K1Nearest under a context, on a pool of
// Workers(workers) workers. Every record's neighbourhood is computed
// independently, so the worker count never changes the output. Record
// scans stop at the next record boundary once ctx is done and ctx.Err() is
// returned with no partial output. A nil ctx disables cancellation.
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
// machine-sized pool; K1ExpandCtx controls the pool size.
func K1Expand(s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, error) {
	return K1ExpandCtx(nil, s, tbl, k, 0)
}

// K1ExpandCtx is K1Expand under a context, on a pool of Workers(workers)
// workers. Every record's cluster is grown independently, so the worker
// count never changes the output. Record scans stop at the next record
// boundary once ctx is done and ctx.Err() is returned with no partial
// output. A nil ctx disables cancellation.
//
// Each growth step picks the least (dist, j), exactly as a full sweep in
// ascending j would, but prices only the candidates that can still win:
// every candidate is scanned in the order of a lower bound on its cost that
// holds for all k−1 steps (expandScan), and a step stops at the first bound
// above the best cost found.
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
	_, err := p.ForSpansCtx(ctx, n, 1, func(lo, hi, _ int) {
		sc := newExpandScan(s, n)
		for i := lo; i < hi && !ctxDone(ctx); i++ {
			fault.Inject(SiteK1Record)
			o.Event(obs.KindScan, PhaseK1, sc.grow(tbl, i, k, g.Records[i]))
		}
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// k1Buckets is the number of bound buckets of an Algorithm 4 record scan.
const k1Buckets = 64

// expandScan is one worker span's scratch for Algorithm 4, reused across
// its records so that a record allocates nothing.
//
// The bound: Algorithm 4 minimizes d(S_i ∪ {R_j}), a sum over attributes of
// CostAt(a, LCA(C_a, R_j,a)) divided by r, where C is S_i's closure. As
// S_i ∋ R_i, C_a is an ancestor-or-self of R_i,a, so LCA(C_a, R_j,a) is an
// ancestor-or-self of LCA(R_i,a, R_j,a), and each term is at least the
// root-path envelope that cluster.Space.LCABoundRow reads at R_i. IEEE
// addition and division by r are monotone, so the bound sum, taken in the
// same ascending attribute order, is ≤ the exact cost bit for bit at every
// step, for any measure.
type expandScan struct {
	s       *cluster.Space
	rows    *costRows // cost rows of S_i's closure
	bounds  *costRows // envelope rows of R_i
	closure table.GenRecord
	members []int
	inS     []bool
	bnd     []float64 // bnd[j]: R_j's bound for the current record
	ord     []int32   // candidates by bucket, ascending j within one
	start   [k1Buckets + 1]int32
	least   [k1Buckets]float64 // least bound in each bucket
}

func newExpandScan(s *cluster.Space, n int) *expandScan {
	return &expandScan{
		s:       s,
		rows:    newCostRows(s),
		bounds:  newCostRows(s),
		closure: make(table.GenRecord, s.NumAttrs()),
		inS:     make([]bool, n),
		bnd:     make([]float64, n),
		ord:     make([]int32, n),
	}
}

// grow runs Algorithm 4 for record i into out and returns the number of
// per-candidate row sums it took, bound and exact.
func (sc *expandScan) grow(tbl *table.Table, i, k int, out table.GenRecord) int64 {
	copy(sc.closure, tbl.Records[i])
	if k == 1 {
		copy(out, sc.closure)
		return 0
	}
	evals := sc.order(tbl, i)
	sc.members = append(sc.members[:0], i)
	sc.inS[i] = true
	for size := 1; size < k; size++ {
		// d(S ∪ {R_j}) − d(S): the subtrahend is constant over j, so
		// minimizing d(S ∪ {R_j}) suffices.
		sc.rows.load(sc.closure)
		bestJ, bestD := -1, math.Inf(1)
		for b := 0; b < k1Buckets; b++ {
			lo, hi := sc.start[b], sc.start[b+1]
			if lo == hi {
				continue
			}
			if sc.least[b] > bestD {
				break // every later bound is larger still
			}
			for _, j32 := range sc.ord[lo:hi] {
				j := int(j32)
				if sc.inS[j] {
					continue
				}
				// Cost ≥ bound: skip a candidate that could neither beat
				// bestD nor tie it from a lower index.
				if bd := sc.bnd[j]; bd > bestD || (bd == bestD && j > bestJ) {
					continue
				}
				d := sc.rows.pairCost(tbl.Records[j])
				evals++
				if d < bestD || (d == bestD && j < bestJ) {
					bestJ, bestD = j, d
				}
			}
		}
		sc.inS[bestJ] = true
		sc.members = append(sc.members, bestJ)
		widen(sc.s, sc.closure, tbl.Records[bestJ])
	}
	for _, j := range sc.members {
		sc.inS[j] = false
	}
	copy(out, sc.closure)
	return evals
}

// order prices every candidate j ≠ i by its bound and counting-sorts the
// candidates into k1Buckets buckets of ascending bound: a bucket's bounds
// all lie below the next bucket's, since the bucket index is a monotone
// function of the bound. It returns the n−1 bound evaluations.
func (sc *expandScan) order(tbl *table.Table, i int) int64 {
	sc.bounds.loadBound(tbl.Records[i])
	lo, hi := math.Inf(1), math.Inf(-1)
	for j, rec := range tbl.Records {
		if j == i {
			continue
		}
		b := sc.bounds.pairCost(rec)
		sc.bnd[j] = b
		lo, hi = min(lo, b), max(hi, b)
	}
	width := hi - lo
	bucket := func(b float64) int {
		if !(width > 0) || math.IsInf(width, 1) {
			return 0
		}
		return int(float64(k1Buckets-1) * ((b - lo) / width))
	}
	var count [k1Buckets]int32
	for bk := range sc.least {
		sc.least[bk] = math.Inf(1)
	}
	for j := range tbl.Records {
		if j != i {
			bk := bucket(sc.bnd[j])
			count[bk]++
			sc.least[bk] = min(sc.least[bk], sc.bnd[j])
		}
	}
	for bk, c := range count {
		sc.start[bk+1] = sc.start[bk] + c
	}
	var next [k1Buckets]int32
	copy(next[:], sc.start[:k1Buckets])
	for j := range tbl.Records {
		if j != i {
			bk := bucket(sc.bnd[j])
			sc.ord[next[bk]] = int32(j)
			next[bk]++
		}
	}
	return int64(tbl.Len() - 1)
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
