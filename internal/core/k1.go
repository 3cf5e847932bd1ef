package core

import (
	"context"
	"fmt"
	"math"

	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/table"
)

// K1NearestCtx runs Algorithm 3: (k,1)-anonymization by nearest
// neighbours. Every record R_i is replaced by the closure of {R_i}
// together with the k−1 records closest to it under the pair cost
// d({R_i, R_j}). The output approximates the optimal (k,1)-anonymization
// within a factor of k−1 (Proposition 5.1).
//
// Records are processed independently on a pool of Workers(workers)
// workers, so the worker count never changes the output. Record scans stop
// at the next record boundary once ctx is done and ctx.Err() is returned
// with no partial output. A nil ctx disables cancellation.
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
	_, err := p.ForSpansCtx(ctx, n, 1, func(lo, hi, _ int) {
		// Span scratch, reused across its records.
		rows := newCostRows(s)
		near := cheapest{best: make([]cand, 0, k)}
		for i := lo; i < hi && !ctxDone(ctx); i++ {
			// One neighbourhood scan per record: n−1 pair-cost evaluations.
			o.Event(obs.KindScan, PhaseK1, int64(n-1))
			// Keep the k−1 smallest pair costs; ties broken by lower index.
			rows.load(tbl.Records[i])
			near.reset(k - 1)
			for j, rec := range tbl.Records {
				if j != i {
					near.offer(j, rows.pairCost(rec))
				}
			}
			// R̄_i: the closure of R_i and its k−1 nearest records.
			out := g.Records[i]
			copy(out, tbl.Records[i])
			for _, c := range near.best {
				widen(s, out, tbl.Records[c.j])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// K1ExpandCtx runs Algorithm 4: (k,1)-anonymization by greedy expansion.
// For every record R_i, a cluster S_i = {R_i} is grown by repeatedly adding
// the record R_j ∉ S_i minimizing dist(S_i, R_j) = d(S_i ∪ {R_j}) − d(S_i),
// until |S_i| = k; R̄_i is the closure of S_i. In the paper's experiments
// this consistently beats Algorithm 3 despite lacking its approximation
// guarantee.
//
// Records are processed independently on a pool of Workers(workers)
// workers, so the worker count never changes the output. Record scans stop
// at the next record boundary once ctx is done and ctx.Err() is returned
// with no partial output. A nil ctx disables cancellation.
//
// Each growth step picks the least (dist, j), exactly as a full sweep in
// ascending j would, but prices only the candidates that can still win:
// the candidates are reached best-first through a prefix trie over the
// records (cluster.RecordTrie), in the order of a lower bound on their
// cost that holds for all k−1 steps, and a step settles once every bound
// left exceeds the best cost found (expandScan). At k = n every S_i is the whole table, so
// every R̄_i is the table's closure, found with no scan.
func K1ExpandCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, error) {
	n := tbl.Len()
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	o := obs.From(ctx)
	defer o.Phase(PhaseK1)()
	g := table.NewGen(tbl.Schema, n)
	var whole table.GenRecord // every R̄_i at k = n
	if k == n {
		whole = s.LeafClosure(tbl.Records[0])
		for _, rec := range tbl.Records[1:] {
			widen(s, whole, rec)
		}
	}
	t := cluster.NewRecordTrie(tbl)
	p := par.New(workers)
	defer p.Close()
	visits := make([]int64, p.Size()) // per span
	_, err := p.ForSpansCtx(ctx, n, 1, func(lo, hi, span int) {
		sc := newExpandScan(s, t, n)
		for i := lo; i < hi && !ctxDone(ctx); i++ {
			if whole != nil {
				copy(g.Records[i], whole)
				o.Event(obs.KindScan, PhaseK1, 0)
				continue
			}
			evals, v := sc.grow(tbl, i, k, g.Records[i])
			o.Event(obs.KindScan, PhaseK1, evals)
			visits[span] += v
		}
	})
	if err != nil {
		return nil, err
	}
	total := int64(0)
	for _, v := range visits {
		total += v
	}
	o.Counter(PhaseK1+".trie_visits", total)
	return g, nil
}

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
//
// The search: R_i's cluster.Frontier over the shared cluster.RecordTrie
// lives for all k−1 steps of a record and only grows, so no node is
// expanded twice and no record summed twice. A step walks the buckets
// upwards, prices the records that can still win, expands (and unlinks)
// the nodes whose partial sum is at most Ts, the largest s with s/r ≤ the
// best cost so far, and settles at the first bucket whose every key
// exceeds Ts.
type expandScan struct {
	s       *cluster.Space
	t       *cluster.RecordTrie
	f       *cluster.Frontier
	rows    *costRows // cost rows of S_i's closure
	cost    []float64 // the value entries of rows, laid out as the trie's value rows
	closure table.GenRecord
	members []int
	inS     []bool
}

func newExpandScan(s *cluster.Space, t *cluster.RecordTrie, n int) *expandScan {
	return &expandScan{
		s:       s,
		t:       t,
		f:       cluster.NewFrontier(s, t),
		rows:    newCostRows(s),
		cost:    make([]float64, t.Width()),
		closure: make(table.GenRecord, s.NumAttrs()),
		inS:     make([]bool, n),
	}
}

// grow runs Algorithm 4 for record i into out and returns the number of
// per-candidate row sums it took, bound and exact, and of trie nodes it
// reached.
func (sc *expandScan) grow(tbl *table.Table, i, k int, out table.GenRecord) (evals, visits int64) {
	copy(sc.closure, tbl.Records[i])
	if k == 1 {
		copy(out, sc.closure)
		return 0, 0
	}
	f := sc.f
	f.Reset(tbl.Records[i])
	sc.members = append(sc.members[:0], i)
	sc.inS[i] = true
	r := float64(len(sc.rows.rows))
	for size := 1; size < k; size++ {
		// d(S ∪ {R_j}) − d(S): the subtrahend is constant over j, so
		// minimizing d(S ∪ {R_j}) suffices.
		sc.rows.load(sc.closure)
		for a, row := range sc.rows.rows {
			sc.t.Flatten(sc.cost, a, row)
		}
		bestJ, bestD := -1, math.Inf(1)
		ts, last := bestD, cluster.FrontierBuckets-1
	walk:
		for b := 0; b <= last; b++ {
			prev := int32(b)
			for e := f.Next(prev); e >= 0; {
				sum, ref := f.Entry(e)
				if ref >= 0 {
					prev, e = e, f.Next(e)
					// Cost ≥ bound = sum/r: skip a candidate that could
					// neither beat bestD nor tie it from a lower index.
					if sum > ts {
						continue
					}
					j := sc.t.Record(ref)
					if sc.inS[j] || (j > bestJ && sum/r == bestD) {
						continue
					}
					d := sc.t.Sum(ref, sc.cost) / r
					evals++
					if d < bestD || (d == bestD && j < bestJ) {
						bestJ, bestD = j, d
						ts = sumLimit(d, r)
						if last = f.Bucket(ts); b > last {
							break walk // every key left exceeds Ts
						}
					}
					continue
				}
				if sum > ts {
					prev, e = e, f.Next(e)
					continue
				}
				// Unlink the node, then expand it: its children land in
				// this bucket or later ones, so the walk reaches them.
				f.Unlink(b, prev, e)
				e2, v2 := f.Expand(i, ^ref, sum, math.Inf(1))
				evals += e2
				visits += v2
				e = f.Next(prev)
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
	return evals, visits
}

// sumLimit returns Ts, the largest float64 s with s/r ≤ d: a bound sum
// above Ts is a bound above d.
func sumLimit(d, r float64) float64 {
	if math.IsInf(d, 1) {
		return d
	}
	s := d * r
	for s/r > d {
		s = math.Nextafter(s, math.Inf(-1))
	}
	for {
		up := math.Nextafter(s, math.Inf(1))
		if up/r > d {
			return s
		}
		s = up
	}
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
