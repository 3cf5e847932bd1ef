package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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
// records (k1Trie), in the order of a lower bound on their cost that holds
// for all k−1 steps, and a step settles once every bound left exceeds the
// best cost found (expandScan). At k = n every S_i is the whole table, so
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
	t := newK1Trie(tbl)
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

// k1Trie is Algorithm 4's per-release prefix trie: the records sorted by
// tuple (ties by index), and for every depth ℓ ≤ L a node per distinct
// ℓ-prefix, whose records are one run of that order. L is the deepest
// depth whose distinct prefixes number at most n/4: levels are expanded
// only while prefixes are shared, and below L a node's records are
// finished one by one. The rule reads only the input.
type k1Trie struct {
	depth int     // L
	recs  []int32 // record indices sorted by (tuple, index)
	vals  []int32 // their tuples in that order, r values each, value v of attribute a as off[a]+v
	off   []int   // off[a]: where attribute a's values start in a row of all attributes' values
	nodes []k1Node
}

// k1Node is one trie node: the prefix of its records' first depth values.
// Node 0 is the root (the empty prefix); the nodes are in level order, so a
// node's children are one run of the next level.
type k1Node struct {
	lo, hi   int32 // the node's records, recs[lo:hi]
	kid, end int32 // its children, nodes[kid:end] (none at depth L)
	depth    int32
	val      int32 // the value at attribute depth−1, as in vals (unused at the root)
}

func newK1Trie(tbl *table.Table) *k1Trie {
	n, r := tbl.Len(), tbl.Schema.NumAttrs()
	recs := make([]int32, n)
	for j := range recs {
		recs[j] = int32(j)
	}
	slices.SortFunc(recs, func(x, y int32) int {
		if c := slices.Compare(tbl.Records[x], tbl.Records[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	// prefixes[ℓ]: the number of distinct ℓ-prefixes, one plus the number
	// of adjacent sorted pairs that first differ before attribute ℓ.
	prefixes := make([]int, r+1)
	for p := 1; p < n; p++ {
		a, b := tbl.Records[recs[p-1]], tbl.Records[recs[p]]
		fd := 0
		for fd < r && a[fd] == b[fd] {
			fd++
		}
		if fd < r {
			prefixes[fd+1]++
		}
	}
	prefixes[0] = 1
	depth, total := 0, 1
	for l := 1; l <= r; l++ {
		prefixes[l] += prefixes[l-1]
		if 4*prefixes[l] > n {
			break
		}
		depth, total = l, total+prefixes[l]
	}
	off := make([]int, r+1)
	for a, attr := range tbl.Schema.Attrs {
		off[a+1] = off[a] + attr.Size()
	}
	vals := make([]int32, 0, n*r)
	for _, j := range recs {
		for a, v := range tbl.Records[j] {
			vals = append(vals, int32(off[a]+v))
		}
	}
	nodes := make([]k1Node, 1, total)
	nodes[0] = k1Node{hi: int32(n)}
	for u := 0; u < len(nodes) && int(nodes[u].depth) < depth; u++ {
		nd, a := nodes[u], int(nodes[u].depth)
		nodes[u].kid = int32(len(nodes))
		for p := nd.lo; p < nd.hi; {
			v := vals[int(p)*r+a]
			q := p + 1
			for q < nd.hi && vals[int(q)*r+a] == v {
				q++
			}
			nodes = append(nodes, k1Node{lo: p, hi: q, depth: int32(a + 1), val: v})
			p = q
		}
		nodes[u].end = int32(len(nodes))
	}
	return &k1Trie{depth: depth, recs: recs, vals: vals, off: off, nodes: nodes}
}

// k1Buckets is the number of buckets of an Algorithm 4 record's frontier.
const k1Buckets = 64

// k1Entry is one frontier entry: a trie node (ref = ^node) or a candidate
// record (ref = its position in k1Trie.recs), keyed by its partial or full
// bound sum. Entry b < k1Buckets is bucket b's head sentinel.
type k1Entry struct {
	sum  float64
	ref  int32
	next int32 // the next entry of the same bucket, or −1
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
// The search: costs are ≥ 0 (cluster.NewSpace), so the running sum of the
// envelope entries over a trie node's prefix never exceeds the bound sum of
// any record below it. A bucket queue keyed by these partial sums holds
// the frontier of unexpanded nodes and reached records; it lives for all
// k−1 steps of a record and only grows, so no node is expanded twice and
// no record summed twice. A step walks the buckets upwards, prices the
// records that can still win, expands the nodes whose partial sum is at
// most Ts, the largest s with s/r ≤ the best cost so far, and settles at
// the first bucket whose every key exceeds Ts.
type expandScan struct {
	s       *cluster.Space
	t       *k1Trie
	rows    *costRows // cost rows of S_i's closure
	bounds  *costRows // envelope rows of R_i
	cost    []float64 // the value entries of rows, laid out as k1Trie.vals
	env     []float64 // the value entries of bounds, laid out as k1Trie.vals
	closure table.GenRecord
	members []int
	inS     []bool
	ent     []k1Entry
	tail    [k1Buckets]int32
	hi      float64 // no partial or bound sum exceeds hi
	scale   float64 // k1Buckets / hi, or 0 when hi is 0 or +Inf
}

func newExpandScan(s *cluster.Space, t *k1Trie, n int) *expandScan {
	return &expandScan{
		s:       s,
		t:       t,
		rows:    newCostRows(s),
		bounds:  newCostRows(s),
		cost:    make([]float64, t.off[len(t.off)-1]),
		env:     make([]float64, t.off[len(t.off)-1]),
		closure: make(table.GenRecord, s.NumAttrs()),
		inS:     make([]bool, n),
		ent:     make([]k1Entry, 0, k1Buckets+len(t.nodes)+n),
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
	sc.reset(tbl.Records[i])
	sc.push(^0, 0)
	sc.members = append(sc.members[:0], i)
	sc.inS[i] = true
	r := float64(len(sc.rows.rows))
	for size := 1; size < k; size++ {
		// d(S ∪ {R_j}) − d(S): the subtrahend is constant over j, so
		// minimizing d(S ∪ {R_j}) suffices.
		sc.rows.load(sc.closure)
		sc.flatten(sc.cost, sc.rows)
		bestJ, bestD := -1, math.Inf(1)
		ts, last := bestD, k1Buckets-1
	walk:
		for b := 0; b <= last; b++ {
			prev := int32(b)
			for e := sc.ent[b].next; e >= 0; {
				en := sc.ent[e]
				if p := int(en.ref); p >= 0 {
					prev, e = e, en.next
					// Cost ≥ bound = sum/r: skip a candidate that could
					// neither beat bestD nor tie it from a lower index.
					if en.sum > ts {
						continue
					}
					j := int(sc.t.recs[p])
					if sc.inS[j] || (j > bestJ && en.sum/r == bestD) {
						continue
					}
					d := sc.price(p)
					evals++
					if d < bestD || (d == bestD && j < bestJ) {
						bestJ, bestD = j, d
						ts = sumLimit(d, r)
						if last = sc.bucket(ts); b > last {
							break walk // every key left exceeds Ts
						}
					}
					continue
				}
				if en.sum > ts {
					prev, e = e, en.next
					continue
				}
				// Unlink the node, then expand it: its children land in
				// this bucket or later ones, so the walk reaches them.
				sc.ent[prev].next = en.next
				if sc.tail[b] == e {
					sc.tail[b] = prev
				}
				e2, v2 := sc.expand(i, ^en.ref, en.sum)
				evals += e2
				visits += v2
				e = sc.ent[prev].next
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

// reset empties the frontier and loads the envelope rows of record u. The
// bucket scale spans [0, hi], hi the sum of each attribute's largest
// envelope entry over the values: no partial or bound sum exceeds it.
func (sc *expandScan) reset(u table.Record) {
	sc.bounds.loadBound(u)
	sc.ent = sc.ent[:k1Buckets]
	for b := range sc.tail {
		sc.ent[b].next, sc.tail[b] = -1, int32(b)
	}
	sc.flatten(sc.env, sc.bounds)
	hi := 0.0
	for a := range sc.bounds.rows {
		hi += slices.Max(sc.env[sc.t.off[a]:sc.t.off[a+1]])
	}
	sc.hi, sc.scale = hi, 0
	if hi > 0 && !math.IsInf(hi, 1) {
		sc.scale = k1Buckets / hi
	}
}

// flatten copies the value entries of rows into dst, laid out as
// k1Trie.vals: a record's row sum is then one load per attribute.
func (sc *expandScan) flatten(dst []float64, rows *costRows) {
	for a, row := range rows.rows {
		copy(dst[sc.t.off[a]:sc.t.off[a+1]], row)
	}
}

// price returns the exact cost c(C + R_j) of the record at position p of
// the trie's order: costRows.pairCost's sum, in the same order.
func (sc *expandScan) price(p int) float64 {
	r := len(sc.rows.rows)
	sum := 0.0
	for _, x := range sc.t.vals[p*r : (p+1)*r] {
		sum += sc.cost[x]
	}
	return sum / float64(r)
}

// bucket maps a key to its bucket, monotone in the key: a key ≤ Ts lies
// in a bucket ≤ bucket(Ts).
func (sc *expandScan) bucket(sum float64) int {
	if !(sum < sc.hi) {
		return k1Buckets - 1
	}
	return min(int(sum*sc.scale), k1Buckets-1)
}

// push appends an entry to the tail of the bucket of its sum.
func (sc *expandScan) push(ref int32, sum float64) {
	e := int32(len(sc.ent))
	sc.ent = append(sc.ent, k1Entry{sum: sum, ref: ref, next: -1})
	b := sc.bucket(sum)
	sc.ent[sc.tail[b]].next = e
	sc.tail[b] = e
}

// expand pushes the children of trie node u, whose partial sum is p: at
// depth ℓ < L each child adds its envelope entry at attribute ℓ; at depth
// L every record but i is finished with a row sum from attribute L on, the
// same sum in the same order as a flat pass over all r attributes. It
// returns the row sums and the trie nodes it took.
func (sc *expandScan) expand(i int, u int32, p float64) (evals, visits int64) {
	nd, env := sc.t.nodes[u], sc.env
	if int(nd.depth) < sc.t.depth {
		for c := nd.kid; c < nd.end; c++ {
			sc.push(^c, p+env[sc.t.nodes[c].val])
		}
		return 0, int64(nd.end - nd.kid)
	}
	r, from, lo := len(sc.bounds.rows), sc.t.depth, int(nd.lo)
	vals := sc.t.vals
	for q, j := range sc.t.recs[lo:nd.hi] {
		sum := p
		for _, x := range vals[(lo+q)*r+from : (lo+q+1)*r] {
			sum += env[x]
		}
		if int(j) != i {
			sc.push(int32(lo+q), sum)
			evals++
		}
	}
	if from == r {
		evals = 0 // the node's sum is its records' bound
	}
	return evals, 0
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
