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
// with no partial output. A nil ctx disables cancellation. Each record is
// one scan of n−1 pair costs (core.k1.scans, core.k1.scan_evals).
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
	scans := make([]int64, p.Size()) // per span
	_, err := p.ForSpansCtx(ctx, n, 1, func(lo, hi, span int) {
		// Span scratch, reused across its records.
		rows := newCostRows(s)
		near := cheapest{best: make([]cand, 0, k)}
		i := lo
		for ; i < hi && !ctxDone(ctx); i++ {
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
		scans[span] += int64(i - lo)
	})
	if total := sum(scans); total > 0 {
		o.Counter(PhaseK1+".scans", total)
		o.Counter(PhaseK1+".scan_evals", total*int64(n-1))
	}
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
// with no partial output. A nil ctx disables cancellation. Each record is
// one scan (core.k1.scans) of the candidates it priced
// (core.k1.scan_evals) and the trie nodes and records its frontier
// reached (core.k1.trie_visits).
//
// Each growth step picks the least (dist, j), exactly as a full sweep in
// ascending j would, but prices only the candidates that can still win:
// the candidates are reached best-first through a prefix trie over the
// records (cluster.RecordTrie), in the order of lower bounds on their cost
// that hold for the step and every later one, and a step settles once
// every bound left exceeds the best cost found (expandScan). The bounds
// start from R_i's root-path envelope; from the second step on, a trie
// node is first tested against S_i's grown closure, on all r attributes,
// before its records are summed, and the nodes and records that cannot
// win are re-keyed to the tighter bound. core.k1.scan_evals counts those
// node tests and, under a measure whose costs fall along a root path, the
// re-keys' bound sums too. At k = n every S_i is the whole table, so every
// R̄_i is the table's closure, found with no scan.
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
	// Per-span tallies: records scanned, candidates priced, trie visits.
	scans := make([]int64, p.Size())
	evals := make([]int64, p.Size())
	visits := make([]int64, p.Size())
	_, err := p.ForSpansCtx(ctx, n, 1, func(lo, hi, span int) {
		sc := newExpandScan(s, t, n)
		i := lo
		for ; i < hi && !ctxDone(ctx); i++ {
			if whole != nil {
				copy(g.Records[i], whole)
				continue
			}
			e, v := sc.grow(tbl, i, k, g.Records[i])
			evals[span] += e
			visits[span] += v
		}
		scans[span] += int64(i - lo)
	})
	if total := sum(scans); total > 0 {
		o.Counter(PhaseK1+".scans", total)
		o.Counter(PhaseK1+".scan_evals", sum(evals))
	}
	o.Counter(PhaseK1+".trie_visits", sum(visits))
	if err != nil {
		return nil, err
	}
	return g, nil
}

// sum returns the total of per-span tallies.
func sum(tallies []int64) int64 {
	total := int64(0)
	for _, v := range tallies {
		total += v
	}
	return total
}

// expandScan is one worker span's scratch for Algorithm 4, reused across
// its records so that a record allocates nothing.
//
// The bound: Algorithm 4 minimizes d(S_i ∪ {R_j}), a sum over attributes of
// CostAt(a, LCA(C_a, R_j,a)) divided by r, where C is S_i's closure. C_a
// is an ancestor-or-self of R_i,a, and S_i only grows, so the root-path
// envelope that cluster.Space.LCABoundRow reads at C_a bounds each term
// from below at this growth step and at every later one, and the envelope
// at R_i,a bounds it at every step. IEEE addition and division by r are
// monotone, so a bound sum taken in the same ascending attribute order is
// ≤ the exact cost bit for bit, for any measure. The frontier is keyed by
// R_i's envelope; from the second step on, the walk loads C's envelope
// rows once per step (cluster.Frontier.Tighten) and raises keys to it.
//
// The search: R_i's cluster.Frontier over the shared cluster.RecordTrie
// lives for all k−1 steps of a record and only grows, so no node is
// expanded twice. A step walks the buckets upwards and settles at the
// first bucket whose every key exceeds Ts, the largest s with s/r ≤ the
// best cost so far. Of the entries keyed at most Ts:
//   - a record is priced unless it cannot win. One priced and not chosen
//     is re-keyed to its bound sum under C, which under a monotone measure
//     is the exact sum just taken (the bound rows are the cost rows), and
//     moves to a later bucket when that sum exceeds Ts (Frontier.Rekey);
//   - a node, from the second step on, is first folded under C
//     (Frontier.Fold): its prefix values' entries, then C's least entry of
//     each later attribute. A fold above Ts skips the node, which moves to
//     the fold's bucket when that is a later one. Otherwise the node is
//     unlinked and expanded from its own partial sum, its children keyed
//     at least the larger of its key and its fold (Frontier.ExpandKeyed),
//     so they land in its bucket or a later one.
//
// Every raised key bounds its records at its step and every later one, so
// an entry the walk leaves behind cannot win a later step either.
type expandScan struct {
	s        *cluster.Space
	t        *cluster.RecordTrie
	f        *cluster.Frontier
	rows     *costRows // cost rows of S_i's closure
	cost     []float64 // the value entries of rows, laid out as the trie's value rows
	monotone bool      // the space's bound rows are its cost rows
	closure  table.GenRecord
	members  []int
	inS      []bool
}

func newExpandScan(s *cluster.Space, t *cluster.RecordTrie, n int) *expandScan {
	return &expandScan{
		s:        s,
		t:        t,
		f:        cluster.NewFrontier(s, t),
		rows:     newCostRows(s),
		cost:     make([]float64, t.Width()),
		monotone: s.Monotone(),
		closure:  make(table.GenRecord, s.NumAttrs()),
		inS:      make([]bool, n),
	}
}

// grow runs Algorithm 4 for record i into out and returns the number of
// row sums it took (bound sums, node tests and exact prices) and of trie
// nodes it reached.
func (sc *expandScan) grow(tbl *table.Table, i, k int, out table.GenRecord) (evals, visits int64) {
	copy(sc.closure, tbl.Records[i])
	if k == 1 {
		copy(out, sc.closure)
		return 0, 0
	}
	sc.f.Reset(tbl.Records[i])
	sc.members = append(sc.members[:0], i)
	sc.inS[i] = true
	for size := 1; size < k; size++ {
		j, e, v := sc.step(i, size > 1)
		evals += e
		visits += v
		sc.add(tbl, j)
	}
	for _, j := range sc.members {
		sc.inS[j] = false
	}
	copy(out, sc.closure)
	return evals, visits
}

// add puts record j into S_i and widens the closure over it.
func (sc *expandScan) add(tbl *table.Table, j int) {
	sc.inS[j] = true
	sc.members = append(sc.members, j)
	widen(sc.s, sc.closure, tbl.Records[j])
}

// step is one growth step of anchor i: it returns the record R_j ∉ S_i of
// least (d(S_i ∪ {R_j}), j), with the row sums it took and the trie nodes
// it reached. tight, from the second step on, raises the keys it meets to
// S_i's closure envelope.
func (sc *expandScan) step(i int, tight bool) (bestJ int, evals, visits int64) {
	f := sc.f
	// d(S ∪ {R_j}) − d(S): the subtrahend is constant over j, so
	// minimizing d(S ∪ {R_j}) suffices.
	sc.rows.load(sc.closure)
	for a, row := range sc.rows.rows {
		sc.t.Flatten(sc.cost, a, row)
	}
	if tight {
		f.Tighten(sc.closure)
	}
	r := float64(len(sc.rows.rows))
	bestJ, bestD := -1, math.Inf(1)
	ts, last := bestD, cluster.FrontierBuckets-1
walk:
	for b := 0; b <= last; b++ {
		prev := int32(b)
		for e := f.Next(prev); e >= 0; {
			key, ref := f.Entry(e)
			// Cost ≥ bound = key/r: skip an entry that could neither
			// beat bestD nor tie it from a lower index.
			if key > ts {
				prev, e = e, f.Next(e)
				continue
			}
			if ref >= 0 {
				j := sc.t.Record(ref)
				if sc.inS[j] || (j > bestJ && key/r == bestD) {
					prev, e = e, f.Next(e)
					continue
				}
				sum := sc.t.Sum(ref, sc.cost)
				d := sum / r
				evals++
				if d < bestD || (d == bestD && j < bestJ) {
					bestJ, bestD = j, d
					ts = sumLimit(d, r)
					if last = f.Bucket(ts); b > last {
						break walk // every key left exceeds Ts
					}
				} else if tight {
					if !sc.monotone {
						sum = f.BoundSum(ref)
						evals++
					}
					if sum > ts && f.Rekey(b, prev, e, sum) {
						e = f.Next(prev)
						continue
					}
				}
				prev, e = e, f.Next(e)
				continue
			}
			if tight {
				fold := f.Fold(^ref)
				evals++
				if fold > ts {
					if f.Rekey(b, prev, e, fold) {
						e = f.Next(prev)
					} else {
						prev, e = e, f.Next(e)
					}
					continue
				}
				key = max(key, fold)
			}
			// Unlink the node, then expand it: its children land in this
			// bucket or later ones, so the walk reaches them.
			f.Unlink(b, prev, e)
			e2, v2 := f.ExpandKeyed(i, ^ref, key)
			evals += e2
			visits += v2
			e = f.Next(prev)
		}
	}
	return bestJ, evals, visits
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
