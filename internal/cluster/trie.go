package cluster

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"kanon/internal/table"
)

// This file holds the prefix trie over a table's records, the bucket
// frontier that walks it best-first (DESIGN.md §12, §17), and the engine's
// initial neighbour build by that walk. Two scans share the trie and the
// frontier: Algorithm 4's greedy expansion (internal/core/k1.go) and the
// engine's trie-searched initial neighbour lists (buildNNTrie). Both key a
// record's candidates by the root-path envelope sums of LCABoundRow, which
// bound every pair cost from below, and price exactly only the candidates
// whose bound can still win.

// RecordTrie is a prefix trie over a table's records: the records sorted
// by tuple (ties by index), and for every depth ℓ ≤ L a node per distinct
// ℓ-prefix, whose records are one run of that order. L is the deepest
// depth whose distinct prefixes number at most n/4: levels are expanded
// only while prefixes are shared, and below L a node's records are
// finished one by one. The rule reads only the input.
type RecordTrie struct {
	depth int     // L
	recs  []int32 // record indices sorted by (tuple, index)
	vals  []int32 // their tuples in that order, r values each, value v of attribute a as off[a]+v
	off   []int   // off[a]: where attribute a's values start in a row of all attributes' values
	nodes []trieNode
}

// trieNode is one trie node: the prefix of its records' first depth
// values. Node 0 is the root (the empty prefix); the nodes are in level
// order, so a node's children are one run of the next level.
type trieNode struct {
	lo, hi   int32 // the node's records, recs[lo:hi]
	kid, end int32 // its children, nodes[kid:end] (none at depth L)
	depth    int32
	val      int32 // the value at attribute depth−1, as in vals (unused at the root)
}

// NewRecordTrie builds the trie over tbl's records.
func NewRecordTrie(tbl *table.Table) *RecordTrie {
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
	nodes := make([]trieNode, 1, total)
	nodes[0] = trieNode{hi: int32(n)}
	for u := 0; u < len(nodes) && int(nodes[u].depth) < depth; u++ {
		nd, a := nodes[u], int(nodes[u].depth)
		nodes[u].kid = int32(len(nodes))
		for p := nd.lo; p < nd.hi; {
			v := vals[int(p)*r+a]
			q := p + 1
			for q < nd.hi && vals[int(q)*r+a] == v {
				q++
			}
			nodes = append(nodes, trieNode{lo: p, hi: q, depth: int32(a + 1), val: v})
			p = q
		}
		nodes[u].end = int32(len(nodes))
	}
	return &RecordTrie{depth: depth, recs: recs, vals: vals, off: off, nodes: nodes}
}

// Depth returns L, the depth of the trie's leaves.
func (t *RecordTrie) Depth() int { return t.depth }

// Record returns the index of the record at position p of the trie's order.
func (t *RecordTrie) Record(p int32) int { return int(t.recs[p]) }

// Width returns the length of a value row: every attribute's values, end
// to end, the layout Flatten writes and Sum reads.
func (t *RecordTrie) Width() int { return t.off[len(t.off)-1] }

// Flatten copies the value entries of attribute a's node row (leaves come
// first, so row[v] belongs to value v) into dst, laid out as a value row.
func (t *RecordTrie) Flatten(dst []float64, a int, row []float64) {
	copy(dst[t.off[a]:t.off[a+1]], row)
}

// Sum returns Σ_a w[value a of the record at position p], in ascending
// attribute order: with w a flattened LCACostRow per attribute, the same
// sum in the same order as a per-attribute pass over the record.
func (t *RecordTrie) Sum(p int32, w []float64) float64 {
	r := len(t.off) - 1
	sum := 0.0
	for _, x := range t.vals[int(p)*r : int(p+1)*r] {
		sum += w[x]
	}
	return sum
}

// FrontierBuckets is the number of buckets of a Frontier.
const FrontierBuckets = 64

// frontierEntry is one frontier entry: a trie node (ref = ^node) or a
// candidate record (ref = its position in the trie's order), keyed by its
// partial or full bound sum. Entry b < FrontierBuckets is bucket b's head
// sentinel.
type frontierEntry struct {
	sum  float64
	ref  int32
	next int32 // the next entry of the same bucket, or −1
}

// Frontier is one record's best-first walk over a RecordTrie: a bucket
// queue of unexpanded nodes and reached records, keyed by sums of the
// record's root-path envelope entries (Space.LCABoundRow). Costs are ≥ 0
// (NewSpace), so a node's partial sum over its prefix never exceeds the
// bound sum of any record below it, and a record's bound sum, taken in
// ascending attribute order, is at most its exact pair-cost sum bit for
// bit: each envelope entry is at most the matching cost and IEEE addition
// is monotone. A bucket's entries stay in push order; bucket(s) is
// monotone in s, so a walk that visits the buckets upwards and stops past
// bucket(Ts) has reached every entry keyed at most Ts, and the children of
// an expanded node land in its bucket or a later one. A Frontier is one
// worker's scratch, reused across records so that a record allocates
// nothing.
type Frontier struct {
	s     *Space
	t     *RecordTrie
	env   []float64   // the record's envelope entries, laid out as a value row
	buf   [][]float64 // LCABoundRow buffers, one per attribute
	ent   []frontierEntry
	tail  [FrontierBuckets]int32
	hi    float64 // no partial or bound sum exceeds hi
	scale float64 // FrontierBuckets / hi, or 0 when hi is 0 or +Inf
}

// NewFrontier returns an empty frontier over t under s's envelopes.
func NewFrontier(s *Space, t *RecordTrie) *Frontier {
	return &Frontier{
		s:   s,
		t:   t,
		env: make([]float64, t.Width()),
		buf: make([][]float64, s.NumAttrs()),
		ent: make([]frontierEntry, 0, FrontierBuckets+len(t.nodes)+len(t.recs)),
	}
}

// Reset empties the frontier, loads the envelope rows of record u and
// pushes the trie's root at sum 0. The bucket scale spans [0, hi], hi the
// sum of each attribute's largest envelope entry over the values: no
// partial or bound sum exceeds it.
func (f *Frontier) Reset(u table.Record) {
	hi := 0.0
	for a, v := range u {
		f.buf[a] = f.s.LCABoundRow(a, v, f.buf[a])
		f.t.Flatten(f.env, a, f.buf[a])
		hi += slices.Max(f.env[f.t.off[a]:f.t.off[a+1]])
	}
	f.ent = f.ent[:FrontierBuckets]
	for b := range f.tail {
		f.ent[b].next, f.tail[b] = -1, int32(b)
	}
	f.hi, f.scale = hi, 0
	if hi > 0 && !math.IsInf(hi, 1) {
		f.scale = FrontierBuckets / hi
	}
	f.push(^0, 0)
}

// Bucket maps a key to its bucket, monotone in the key: a key ≤ Ts lies
// in a bucket ≤ Bucket(Ts).
func (f *Frontier) Bucket(sum float64) int {
	if !(sum < f.hi) {
		return FrontierBuckets - 1
	}
	return min(int(sum*f.scale), FrontierBuckets-1)
}

// Next returns the entry after e in e's bucket, or −1; Next(b) for a
// bucket b < FrontierBuckets is the bucket's first entry.
func (f *Frontier) Next(e int32) int32 { return f.ent[e].next }

// Entry returns entry e's key and reference: a record's position in the
// trie's order when ref ≥ 0, else the trie node ^ref.
func (f *Frontier) Entry(e int32) (sum float64, ref int32) {
	return f.ent[e].sum, f.ent[e].ref
}

// Unlink removes entry e, which follows prev, from bucket b.
func (f *Frontier) Unlink(b int, prev, e int32) {
	f.ent[prev].next = f.ent[e].next
	if f.tail[b] == e {
		f.tail[b] = prev
	}
}

// push appends an entry to the tail of the bucket of its sum.
func (f *Frontier) push(ref int32, sum float64) {
	e := int32(len(f.ent))
	f.ent = append(f.ent, frontierEntry{sum: sum, ref: ref, next: -1})
	b := f.Bucket(sum)
	f.ent[f.tail[b]].next = e
	f.tail[b] = e
}

// Expand pushes the children of trie node u, whose partial sum is p, that
// are keyed at most limit: at depth ℓ < L each child adds its envelope
// entry at attribute ℓ; at depth L every record but skip is finished with
// a row sum from attribute L on, the same sum in the same order as a flat
// pass over all r attributes. It returns the record row sums and the trie
// nodes it took, whatever their keys.
func (f *Frontier) Expand(skip int, u int32, p, limit float64) (sums, visits int64) {
	t, env := f.t, f.env
	nd := t.nodes[u]
	if int(nd.depth) < t.depth {
		for c := nd.kid; c < nd.end; c++ {
			if sum := p + env[t.nodes[c].val]; sum <= limit {
				f.push(^c, sum)
			}
		}
		return 0, int64(nd.end - nd.kid)
	}
	r, from, lo := len(t.off)-1, t.depth, int(nd.lo)
	for q, j := range t.recs[lo:nd.hi] {
		if int(j) == skip {
			continue
		}
		sum := p
		for _, x := range t.vals[(lo+q)*r+from : (lo+q+1)*r] {
			sum += env[x]
		}
		if sum <= limit {
			f.push(int32(lo+q), sum)
		}
		sums++
	}
	if from == r {
		sums = 0 // the node's sum is its records' bound
	}
	return sums, 0
}

// nnTrieRecords is the crossover of the initial build: a table of at
// least this many records takes the trie search (buildNNTrie), a smaller
// one the tiled all-pairs build, whose n²/2 priced pairs cost less there
// than the trie's ~1000 bound sums per record (ADT keys its frontier on
// the first 2–3 of 9 attributes, so most of a record's reached prefixes
// only fail on later ones). Measured with both builders called directly
// on ADT under entropy and d3, best of 7, on a 2-vCPU host: sequentially
// the trie search takes 1.5–2.1× the tiled build's time at n=500,
// 1.0–1.16× at 1500–3000 and 0.77–0.87× at 3500–4000 (0.54× at 5000 and
// 0.20× at 10000 in BenchmarkNNInit); at 2 workers 1.6× at n=500,
// 0.87–0.91× at 2000 and 0.66–0.74× from 2500 on. Partitioned shards
// (≤ 500 records) and the n=2000 engine benchmark thus stay on the tiled
// build.
const nnTrieRecords = 3000

// buildNN is the initial nearest-neighbour build: the trie search when the
// table reaches nnTrieRecords and the run's distance admits its bound
// (kernel.trieBound), the tiled build otherwise. Both leave the identical
// lists and seed the heap identically.
func (e *Engine) buildNN(n int) error {
	if n >= nnTrieRecords {
		if cmax, ok := e.kern.trieBound(n); ok {
			return e.buildNNTrie(n, cmax)
		}
	}
	return e.buildNNTiled(n)
}

// buildNNTrie is the initial build by best-first search: each record i
// walks its Frontier over a RecordTrie of the table and prices
// exactly — the ascending-attribute sum of its cost row that price adds —
// only the candidates and nodes whose distance lower bound is not above
// rowNN[i]'s discard bound, offering each priced dist(i, j) to rowNN[i] as
// offerBuild does. The bound of a key b is f(1, 1, 2, c_i, c_max, b/r),
// f the run's formula (kernel.trieBound): the formulas do not decrease as
// dU grows nor increase as d(B) grows, b/r is at most the exact dU and
// c_max at least every c_j. A pruned candidate j thus has
// dist(i, j) > ubD at pruning time, and ubD only falls, so j is lex-above
// the final list and bound: the (top-depth set, discard bound) a full scan
// would leave, since both are functions of the offered set alone.
//
// Ts is the largest key whose bound is at most ubD (kernel.trieLimit); the
// walk skips keys above it and stops past its bucket. Records are sharded
// over the pool in spans, each with its own frontier and cost row; a row
// list is written only by its record's span, so the lists and counters are
// worker-invariant. Each record polls ctx and is one scan of the pairs it
// priced; cluster.init.bound_sums counts the frontier's bound sums
// (Frontier.Expand).
func (e *Engine) buildNNTrie(n int, cmax float64) error {
	k, tbl := e.kern, e.tbl
	t := NewRecordTrie(tbl)
	fr := float64(k.r)
	var boundSums atomic.Int64
	_, err := e.pool.ForSpansCtx(e.ctx, n, 1, func(lo, hi, _ int) {
		f := NewFrontier(e.s, t)
		cost := make([]float64, t.Width())
		rows := make([][]float64, k.r)
		priced, sums := int64(0), int64(0)
		i := lo
		for ; i < hi && !e.cancelled(); i++ {
			rec := tbl.Records[i]
			f.Reset(rec)
			for a, v := range rec {
				rows[a] = e.s.LCACostRow(a, v, rows[a])
				t.Flatten(cost, a, rows[a])
			}
			ci, l := k.cost[i], &e.rowNN[i]
			ub, ts, last := l.ubD, math.Inf(1), FrontierBuckets-1
			p := int64(0)
		walk:
			for b := 0; b <= last; b++ {
				for en := f.Next(int32(b)); en >= 0; en = f.Next(en) {
					sum, ref := f.Entry(en)
					if sum > ts {
						continue
					}
					if ref < 0 {
						s, v := f.Expand(i, ^ref, sum, ts)
						sums += s + v
						continue
					}
					j := t.Record(ref)
					l.offer(k.eval(1, 1, 2, ci, k.cost[j], t.Sum(ref, cost)/fr), int32(j))
					p++
					if l.ubD != ub {
						ub = l.ubD
						ts = k.trieLimit(ci, cmax, ub)
						if last = f.Bucket(ts); b > last {
							break walk // every key left exceeds Ts
						}
					}
				}
			}
			priced += p
		}
		e.distEvals.Add(priced)
		e.initScans.Add(int64(i - lo))
		boundSums.Add(sums)
		if k.fillWalks > 0 {
			k.walks.Add(2 * k.fillWalks * int64(i-lo)) // a cost and an envelope row per record
		}
	})
	// The build is the run's first pricing: its scans priced every
	// evaluation so far.
	e.initScanEvals, e.initBoundSums = e.distEvals.Load(), boundSums.Load()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		e.pushRowHead(i)
	}
	return nil
}

// trieBound reports whether the trie-searched initial build may run over
// the n singletons, and returns c_max, their largest cost. Its bound
// f(1, 1, 2, c_i, c_max, dU) is f(1, 1, 2, c_i, c_j, dU) with c_j raised
// to c_max: every built-in formula is non-decreasing in dU and
// non-increasing in d(B) under IEEE rounding (each is a sum, difference,
// positive scaling or positive-divisor quotient of its operands; D4's
// divisor d(A) + d(B) + ε is positive because costs are ≥ 0). Costs must
// be finite, so that no bound or distance is NaN. A user-supplied distance
// has no known monotonicity.
func (k *kernel) trieBound(n int) (cmax float64, ok bool) {
	if k.kind == distCustom {
		return 0, false
	}
	for _, c := range k.cost[:n] {
		if math.IsInf(c, 0) {
			return 0, false
		}
		cmax = max(cmax, c)
	}
	return cmax, true
}

// trieLimit returns Ts, the largest key s ≥ 0 whose singleton-pair bound
// f(1, 1, 2, ci, cmax, s/r) is at most ub, or −1 when even key 0's bound
// exceeds ub. The bound does not decrease as s grows, and the bit patterns
// of the non-negative float64s order as their values do, so a binary
// search over them finds Ts in at most 63 evaluations.
func (k *kernel) trieLimit(ci, cmax, ub float64) float64 {
	fr := float64(k.r)
	fits := func(s float64) bool { return k.eval(1, 1, 2, ci, cmax, s/fr) <= ub }
	if !fits(0) {
		return -1
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1))
	if fits(math.Inf(1)) {
		return math.Inf(1)
	}
	for hi-lo > 1 { // fits(lo), !fits(hi)
		mid := lo + (hi-lo)/2
		if fits(math.Float64frombits(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}
