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
	return newRecordTrie(tbl, sortByTuple(tbl, nil))
}

// sortByTuple returns tbl's record indices sorted by (tuple, index), in
// recs' storage when it has room.
func sortByTuple(tbl *table.Table, recs []int32) []int32 {
	recs = slices.Grow(recs[:0], tbl.Len())[:tbl.Len()]
	for j := range recs {
		recs[j] = int32(j)
	}
	slices.SortFunc(recs, func(x, y int32) int {
		if c := slices.Compare(tbl.Records[x], tbl.Records[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return recs
}

// newRecordTrie builds the trie over tbl's records given their
// sortByTuple order, which it takes over.
func newRecordTrie(tbl *table.Table, recs []int32) *RecordTrie {
	n, r := tbl.Len(), tbl.Schema.NumAttrs()
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
//
// The newborn passes' frontier walks only the live singletons of the
// run's singletonIndex, which keeps each node's live records and children
// first, and takes no singleton whose id is ≥ below (expandLive). Without
// an index (Algorithm 4, the engine's initial build) every record is a
// candidate and a node is first keyed by its partial sum (Expand,
// ExpandKeyed). Under one, a
// node of depth d is keyed higher, by suf[d], the least envelope sum the
// attributes from d on can add: each attribute's smallest value entry,
// which for a closure anchor is the envelope at its own node. The raised
// key (p + suf[d])·shrink stays at most the bound sum of every record
// below, bit for bit: that sum is a fold of p and entries each at least
// the matching minimum, and shrink absorbs the rounding of either fold.
// A child is keyed at least its parent, so it still lands in its
// parent's bucket or a later one. A merged newborn's closure costs count
// against the limit from the root down, not only at the attributes the
// trie keys on.
//
// Algorithm 4's walk raises keys as its closure C widens (Tighten): a
// node whose Fold under C exceeds the step's limit, or a priced record's
// bound sum under C, moves to a later bucket at that sum (Rekey), and
// ExpandKeyed expands a node from its kept partial sum, keying each child
// at least the node's key.
type Frontier struct {
	s     *Space
	t     *RecordTrie
	env   []float64   // the anchor's envelope entries, laid out as a value row
	buf   [][]float64 // LCABoundRow buffers, one per attribute
	ent   []frontierEntry
	tail  [FrontierBuckets]int32
	hi    float64 // no partial or bound sum exceeds hi
	scale float64 // FrontierBuckets / hi, or 0 when hi is 0 or +Inf
	idx   *singletonIndex
	below int32
	suf   []float64 // suf[d]: the least sum of attributes d.. (zero without an index)
	lo    []float64 // lo[a]: attribute a's smallest envelope entry
	part  []float64 // part[u]: pushed node u's partial sum, under an index or in ExpandKeyed
	cenv  []float64 // the closure's envelope entries, laid out as a value row (Tighten)
	clo   []float64 // clo[a]: attribute a's smallest entry of cenv
}

// NewFrontier returns an empty frontier over t under s's envelopes.
func NewFrontier(s *Space, t *RecordTrie) *Frontier {
	r := s.NumAttrs()
	return &Frontier{
		s:    s,
		t:    t,
		env:  make([]float64, t.Width()),
		buf:  make([][]float64, r),
		ent:  make([]frontierEntry, 0, FrontierBuckets+len(t.nodes)+len(t.recs)),
		suf:  make([]float64, r+1),
		lo:   make([]float64, r),
		part: make([]float64, len(t.nodes)),
		cenv: make([]float64, t.Width()),
		clo:  make([]float64, r),
	}
}

// minSuffix is the least suffix sum a key takes in: from there on every
// sum and product of the key is a normal float64, whose relative rounding
// error shrink covers.
const minSuffix = 0x1p-900

// shrink returns the factor of a raised key over r attributes: below
// (1−u)^r / (1+u)^(r+1), u = 2⁻⁵³, the worst ratio of a fold of r + 1
// non-negative terms to the raised key's own rounded sums and product.
func shrink(r int) float64 { return 1 - float64(4*r+8)*0x1p-53 }

// Reset empties the frontier, loads the envelope rows of record u and
// pushes the trie's root at sum 0. The bucket scale spans [0, hi], hi the
// sum of each attribute's largest envelope entry over the values: no
// partial or bound sum exceeds it.
func (f *Frontier) Reset(u table.Record) {
	hi := 0.0
	for a, v := range u {
		hi += f.loadEnv(a, v)
	}
	f.start(hi)
}

// resetNodes is Reset anchored on a closure row, one node per attribute:
// LCABoundRow bounds the cost of widening any node, so the keys bound the
// closure's pair costs as they bound a record's.
func (f *Frontier) resetNodes(row []int32) {
	hi := 0.0
	for a, v := range row {
		hi += f.loadEnv(a, int(v))
	}
	f.start(hi)
}

// loadEnv lays out attribute a's envelope row of node v in env, records
// its smallest value entry and returns its largest. The smallest is the
// envelope at v itself: every LCA(v, w) is an ancestor-or-self of v, whose
// envelope is the least cost over a subset of v's ancestors-or-self, and
// a value below v has LCA v.
func (f *Frontier) loadEnv(a, v int) float64 {
	row := f.s.LCABoundRow(a, v, f.buf[a])
	f.buf[a] = row
	f.t.Flatten(f.env, a, row)
	f.lo[a] = row[v]
	return slices.Max(f.env[f.t.off[a]:f.t.off[a+1]])
}

// start empties the buckets, sets their scale for sums up to hi, folds
// the suffix sums under an index and pushes the root.
func (f *Frontier) start(hi float64) {
	f.ent = f.ent[:FrontierBuckets]
	for b := range f.tail {
		f.ent[b].next, f.tail[b] = -1, int32(b)
	}
	f.hi, f.scale = hi, 0
	if hi > 0 && !math.IsInf(hi, 1) {
		f.scale = FrontierBuckets / hi
	}
	if f.idx != nil {
		for a := len(f.lo) - 1; a >= 0; a-- {
			f.suf[a] = f.lo[a] + f.suf[a+1]
		}
	}
	root := 0.0 // raised as expandLive raises a child's key
	if s := f.suf[0]; s >= minSuffix {
		root = s * shrink(len(f.lo))
	}
	f.part[0] = 0
	f.push(^0, root)
}

// Tighten loads the envelope rows of closure c as the bound that Fold and
// BoundSum read. Each c_a must be an ancestor-or-self of the anchor's
// value, as the closure of a set holding the anchor is. Then LCA(c_a, w)
// lies on the anchor's root path above LCA(anchor_a, w), so each entry is
// at least the anchor's envelope entry, and at most the cost of widening
// c, or any closure above it, to w: the bound holds for every later growth
// step. Its least entry is the envelope at c_a itself (loadEnv).
func (f *Frontier) Tighten(c []int) {
	for a, v := range c {
		row := f.s.LCABoundRow(a, v, f.buf[a])
		f.buf[a] = row
		f.t.Flatten(f.cenv, a, row)
		f.clo[a] = row[v]
	}
}

// Fold returns the Tighten bound of trie node u: the closure's envelope
// entries of u's prefix values, then clo[a] for every later attribute a,
// added in ascending attribute order. Each term is at most the matching
// term of BoundSum for any record below u, and IEEE addition is monotone,
// so the fold is at most that record's BoundSum, bit for bit.
func (f *Frontier) Fold(u int32) float64 {
	t := f.t
	r, nd := len(t.off)-1, t.nodes[u]
	row := int(nd.lo) * r
	sum := 0.0
	for _, x := range t.vals[row : row+int(nd.depth)] {
		sum += f.cenv[x]
	}
	for _, lo := range f.clo[nd.depth:] {
		sum += lo
	}
	return sum
}

// BoundSum returns the Tighten bound of the record at position p of the
// trie's order: its closure envelope entries, added in ascending attribute
// order.
func (f *Frontier) BoundSum(p int32) float64 { return f.t.Sum(p, f.cenv) }

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

// singleton returns the singleton id of the record at position p of the
// trie's order: the index's id, or, on a frontier without an index (the
// initial build, before any merge), the record itself.
func (f *Frontier) singleton(p int32) int32 {
	if f.idx != nil {
		return f.idx.ids[p]
	}
	return f.t.recs[p]
}

// Unlink removes entry e, which follows prev, from bucket b.
func (f *Frontier) Unlink(b int, prev, e int32) {
	f.ent[prev].next = f.ent[e].next
	if f.tail[b] == e {
		f.tail[b] = prev
	}
}

// Rekey raises entry e, which follows prev in bucket b, to key when key
// falls in a later bucket: it moves the entry to that bucket's tail and
// reports true. An entry keyed into b itself stays where it is, so that
// the walk of b does not meet it twice.
func (f *Frontier) Rekey(b int, prev, e int32, key float64) bool {
	if f.Bucket(key) <= b {
		return false
	}
	f.Unlink(b, prev, e)
	f.ent[e].sum, f.ent[e].next = key, -1
	f.link(e, key)
	return true
}

// push appends an entry to the tail of the bucket of its sum.
func (f *Frontier) push(ref int32, sum float64) {
	e := int32(len(f.ent))
	f.ent = append(f.ent, frontierEntry{sum: sum, ref: ref, next: -1})
	f.link(e, sum)
}

// link appends entry e, keyed sum, to the tail of the bucket of its key.
func (f *Frontier) link(e int32, sum float64) {
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

// ExpandKeyed is Expand for Algorithm 4's walk, whose keys Rekey and the
// walk's node test raise above a node's partial sum: node u, keyed k, is
// expanded from its kept partial sum part[u], each child keeps its own
// partial sum in part, and every child and record is keyed the larger of k
// and its own sum. k is at most the bound of every record below u at this
// growth step and every later one, so the floor keeps each key a bound,
// and the children land in u's bucket or a later one.
func (f *Frontier) ExpandKeyed(skip int, u int32, k float64) (sums, visits int64) {
	t, env := f.t, f.env
	nd, p := t.nodes[u], f.part[u]
	if int(nd.depth) < t.depth {
		for c := nd.kid; c < nd.end; c++ {
			part := p + env[t.nodes[c].val]
			f.part[c] = part
			if part < k {
				f.push(^c, k)
			} else {
				f.push(^c, part)
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
		if sum < k {
			sum = k
		}
		f.push(int32(lo+q), sum)
		sums++
	}
	if from == r {
		sums = 0 // the node's sum is its records' bound
	}
	return sums, 0
}

// expandLive is Expand under the frontier's index for node u keyed k: it
// takes only the children holding a live singleton and the live records,
// skips a singleton whose id is ≥ below before its sum, keys a child the
// largest of k, its partial sum and its raised key, and keeps its partial
// sum in part.
// It is kept apart from Expand: one function for both walks made
// Algorithm 4's ~10% slower.
func (f *Frontier) expandLive(u int32, p, k, limit float64) (sums, visits int64) {
	t, env, x := f.t, f.env, f.idx
	nd := t.nodes[u]
	if int(nd.depth) < t.depth {
		end := nd.kid + x.kids[u]
		s, sh := f.suf[nd.depth+1], shrink(len(f.lo))
		raise := s >= minSuffix
		for _, c := range x.order[nd.kid:end] {
			part := p + env[t.nodes[c].val]
			key := part
			if r := (part + s) * sh; raise && r > key {
				key = r
			}
			if key < k {
				key = k
			}
			if key <= limit {
				f.part[c] = part
				f.push(^c, key)
			}
		}
		return 0, int64(end - nd.kid)
	}
	r, from, lo := len(t.off)-1, t.depth, int(nd.lo)
	for q := range x.live[u] {
		if x.ids[lo+int(q)] >= f.below {
			continue
		}
		sum := p
		for _, v := range t.vals[(lo+int(q))*r+from : (lo+int(q)+1)*r] {
			sum += env[v]
		}
		if sum <= limit {
			f.push(int32(lo)+q, sum)
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
// lists and seed the heap identically. The same choice picks the newborn
// passes' path: the trie search leaves the run its singleton index
// (Engine.idx), which splits every newborn pass into a search of the live
// singletons and a flat pass over the live merged clusters.
func (e *Engine) buildNN(n int) error {
	if n >= nnTrieRecords {
		if cmax, ok := e.kern.trieBound(n); ok {
			return e.buildNNTrie(n, cmax)
		}
	}
	return e.buildNNTiled(n)
}

// singletonIndex indexes a run's live singletons for the trie searches
// (DESIGN.md §17) from the initial build to the end of the merge loop. It
// owns its record trie and keeps it partitioned by liveness: a node's
// records holding a live singleton come first in its run of the trie's
// order, and its children holding one first among its child slots, so a
// search never reaches a dead record or an empty subtree. It also keeps
// each position's singleton id (Algorithm 2 re-seeds a record under a
// fresh id) and the dense list of live merged clusters, which the newborn
// passes price flat. The engine updates it on the driving goroutine: a
// singleton's birth or death moves its record and the nodes on its root
// path across those partitions, O(L + r), and a merged cluster's death
// swap-removes it from merged.
type singletonIndex struct {
	t      *RecordTrie
	f      *Frontier // the newborn passes' frontier
	cost   []float64 // a newborn's cost row, laid out as a value row
	cmax   float64   // the largest singleton cost
	live   []int32   // live[u]: the live singletons among node u's records, recs[lo:lo+live[u]]
	order  []int32   // child slots: node u's children are order[kid:end], those holding one first
	kids   []int32   // kids[u]: node u's children holding one, order[kid:kid+kids[u]]
	slot   []int32   // slot[c]: node c's child slot, order[slot[c]] = c
	up     []int32   // up[u]: node u's parent, −1 at the root
	ids    []int32   // ids[p]: the singleton id of the record at live position p
	at     []int32   // at[j]: record j's position in the trie's order
	leaf   []int32   // leaf[j]: the depth-L node holding record j
	merged []int32   // the live merged clusters, in no particular order
	pos    []int32   // pos[id]: merged cluster id's index in merged, −1 for a singleton
}

// indexSingletons builds the index over the run's n singletons, cluster
// id j holding record j, as the initial build finds them.
func (e *Engine) indexSingletons(n int, cmax float64) *singletonIndex {
	t := newRecordTrie(e.tbl, slices.Clone(e.tc.recs))
	x := &singletonIndex{
		t:      t,
		cost:   make([]float64, t.Width()),
		cmax:   cmax,
		live:   make([]int32, len(t.nodes)),
		order:  make([]int32, len(t.nodes)),
		kids:   make([]int32, len(t.nodes)),
		slot:   make([]int32, len(t.nodes)),
		up:     make([]int32, len(t.nodes)),
		ids:    slices.Clone(t.recs),
		at:     make([]int32, n),
		leaf:   make([]int32, n),
		merged: make([]int32, 0, n/2),
		pos:    make([]int32, n, cap(e.alive)),
	}
	x.up[0] = -1
	for u, nd := range t.nodes {
		x.live[u], x.kids[u] = nd.hi-nd.lo, nd.end-nd.kid
		x.order[u], x.slot[u] = int32(u), int32(u)
		for c := nd.kid; c < nd.end; c++ {
			x.up[c] = int32(u)
		}
		if int(nd.depth) == t.depth {
			for _, j := range t.recs[nd.lo:nd.hi] {
				x.leaf[j] = int32(u)
			}
		}
	}
	for p, j := range t.recs {
		x.at[j], x.pos[j] = int32(p), -1
	}
	x.f = NewFrontier(e.s, t)
	x.f.idx = x
	return x
}

// born records the birth of cluster id, the singleton of record j or,
// when j < 0, a merged cluster. A singleton's record moves to the first
// dead position of its leaf, and every node on its root path that held no
// live singleton to the first dead slot among its siblings.
func (x *singletonIndex) born(id int32, j int) {
	if j < 0 {
		x.pos = append(x.pos, int32(len(x.merged)))
		x.merged = append(x.merged, id)
		return
	}
	x.pos = append(x.pos, -1)
	nodes := x.t.nodes
	u := x.leaf[j]
	q := nodes[u].lo + x.live[u]
	x.swap(x.at[j], q)
	x.ids[q] = id
	for ; u >= 0; u = x.up[u] {
		if up := x.up[u]; x.live[u] == 0 && up >= 0 {
			x.swapKid(u, nodes[up].kid+x.kids[up])
			x.kids[up]++
		}
		x.live[u]++
	}
}

// died records the death of cluster id, whose first member is record j,
// undoing born.
func (x *singletonIndex) died(id int32, j int) {
	if q := x.pos[id]; q >= 0 {
		last := x.merged[len(x.merged)-1]
		x.merged[q], x.pos[last] = last, q
		x.merged = x.merged[:len(x.merged)-1]
		return
	}
	nodes := x.t.nodes
	u := x.leaf[j]
	x.swap(x.at[j], nodes[u].lo+x.live[u]-1)
	for ; u >= 0; u = x.up[u] {
		x.live[u]--
		if up := x.up[u]; x.live[u] == 0 && up >= 0 {
			x.kids[up]--
			x.swapKid(u, nodes[up].kid+x.kids[up])
		}
	}
}

// swap exchanges the records at positions p and q of the trie's order,
// with their value rows and ids.
func (x *singletonIndex) swap(p, q int32) {
	if p == q {
		return
	}
	t := x.t
	r := int32(len(t.off) - 1)
	jp, jq := t.recs[p], t.recs[q]
	t.recs[p], t.recs[q] = jq, jp
	x.at[jp], x.at[jq] = q, p
	x.ids[p], x.ids[q] = x.ids[q], x.ids[p]
	vp, vq := t.vals[p*r:(p+1)*r], t.vals[q*r:(q+1)*r]
	for a := range vp {
		vp[a], vq[a] = vq[a], vp[a]
	}
}

// swapKid moves node c to child slot s, and the node there to c's slot.
func (x *singletonIndex) swapKid(c, s int32) {
	d, sc := x.order[s], x.slot[c]
	x.order[sc], x.order[s] = d, c
	x.slot[c], x.slot[d] = s, sc
}

// buildNNTrie is the initial build by best-first search: it indexes the
// singletons (indexSingletons), and each record i searches the index's
// trie (kernel.search) for the candidates whose distance lower bound is
// not above rowNN[i]'s discard bound, offering each priced dist(i, j) to
// rowNN[i] as the tiled build does. A pruned candidate is lex-above the final
// list and bound, the (top-depth set, discard bound) a full scan would
// leave, since both are functions of the offered set alone.
//
// Records are sharded over the pool in spans, each with its own frontier
// and cost row; a row list is written only by its record's span, so the
// lists and counters are worker-invariant. No singleton has died yet, so
// the frontiers walk the trie as built, without the index (Expand). Each
// record polls ctx and is one scan of the pairs it priced;
// cluster.init.bound_sums counts the frontier's bound sums.
func (e *Engine) buildNNTrie(n int, cmax float64) error {
	k, tbl := e.kern, e.tbl
	x := e.indexSingletons(n, cmax)
	e.idx = x
	t := x.t
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
			p, s := k.search(f, cost, i, 1, k.cost[i], cmax, &e.rowNN[i], nil)
			priced += p
			sums += s
		}
		e.distEvals.Add(priced)
		e.priced.Add(priced)
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

// search is the best-first search of one anchor over the live singletons
// of f's trie, for the initial build (a record anchor, no index, col nil)
// and the newborn passes (under the index, f.below the newborn's id). f
// is reset on the anchor; cost holds the anchor's cost row as a value
// row, sa and ca are its size and cost, and skip is the record the
// initial build's anchor holds. A reached candidate y is priced exactly —
// the ascending-attribute sum of its cost row that price adds — and
// dist(anchor, y) is offered to row and dist(y, anchor) to col, under y,
// as the tiled build and offerNewborn offer them. It returns the pairs priced
// and the frontier's bound sums.
//
// The bound of a key b is f(sa, 1, sa+1, ca, c_max, b/r) in row and
// f(1, sa, sa+1, c_max, ca, b/r) in col, f the run's formula
// (kernel.trieBound): the formulas do not decrease as dU grows nor
// increase as either cost grows, b/r is at most the exact dU and c_max at
// least every singleton cost. A key above a list's Ts (kernel.trieLimit)
// thus has dist > ubD there at pruning time, and ubD only falls. The walk
// takes keys up to the larger Ts of the two lists and stops past its
// bucket, so a pruned candidate is lex-above both final bounds: the
// (top-depth set, discard bound) of each list is what offering it every
// candidate would leave.
func (k *kernel) search(f *Frontier, cost []float64, skip, sa int, ca, cmax float64, row, col *nnList) (priced, sums int64) {
	fr, su := float64(k.r), sa+1
	limit := func() float64 {
		ts := k.trieLimit(sa, 1, ca, cmax, row.ubD)
		if col != nil {
			ts = max(ts, k.trieLimit(1, sa, cmax, ca, col.ubD))
		}
		return ts
	}
	ubRow, ubCol := row.ubD, 0.0
	if col != nil {
		ubCol = col.ubD
	}
	ts := limit()
	last := f.Bucket(ts)
walk:
	for b := 0; b <= last; b++ {
		for en := f.Next(int32(b)); en >= 0; en = f.Next(en) {
			sum, ref := f.Entry(en)
			if sum > ts {
				continue
			}
			if ref < 0 {
				var s, v int64
				if f.idx == nil {
					s, v = f.Expand(skip, ^ref, sum, ts)
				} else {
					s, v = f.expandLive(^ref, f.part[^ref], sum, ts)
				}
				sums += s + v
				continue
			}
			y := f.singleton(ref)
			dU, cy := f.t.Sum(ref, cost)/fr, k.cost[y]
			row.offer(k.eval(sa, 1, su, ca, cy, dU), y)
			moved := row.ubD != ubRow
			if col != nil {
				col.offer(k.eval(1, sa, su, cy, ca, dU), y)
				moved = moved || col.ubD != ubCol
			}
			priced++
			if moved {
				ubRow = row.ubD
				if col != nil {
					ubCol = col.ubD
				}
				ts = limit()
				if last = f.Bucket(ts); b > last {
					break walk // every key left exceeds Ts
				}
			}
		}
	}
	return priced, sums
}

// trieBound reports whether the trie searches may run over the n
// singletons, and returns c_max, their largest cost. A search's bound
// raises the candidate's cost to c_max in either seat of the formula:
// every built-in formula is non-decreasing in dU and non-increasing in
// d(A) and d(B) under IEEE rounding (each is a sum, difference, positive
// scaling or positive-divisor quotient of its operands; D3's divisor
// log|A∪B| is positive for a union of two clusters; D4's divisor
// d(A) + d(B) + ε is positive because costs are ≥ 0, and its dividend
// dU ≥ 0). Costs must be finite, so that no bound or distance is NaN. A
// user-supplied distance has no known monotonicity.
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

// trieLimit returns Ts, the largest key s ≥ 0 whose bound
// f(sa, sb, sa+sb, ca, cb, s/r) is at most ub, or −1 when even key 0's
// bound exceeds ub; +Inf while ub is +Inf, which every bound of finite
// costs fits. The bound does not decrease as s grows, and the bit patterns
// of the non-negative float64s order as their values do, so a search over
// them finds Ts exactly. It gallops out from the formula solved for dU
// (limitGuess), which is off by a few ulps at most, and bisects the
// bracket it finds; a guess far off only costs evaluations.
func (k *kernel) trieLimit(sa, sb int, ca, cb, ub float64) float64 {
	if math.IsInf(ub, 1) {
		return ub
	}
	fr := float64(k.r)
	fits := func(s uint64) bool { return k.eval(sa, sb, sa+sb, ca, cb, math.Float64frombits(s)/fr) <= ub }
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // fits(lo), !fits(hi)
	if !fits(lo) {
		return -1
	}
	if fits(hi) {
		return math.Inf(1)
	}
	if g := limitGuess(k.kind, sa, sb, ca, cb, ub) * fr; g > 0 && g < math.Inf(1) {
		gb := math.Float64bits(g)
		if fits(gb) {
			lo = gb
			for step := uint64(1); lo+step < hi; step *= 2 {
				if !fits(lo + step) {
					hi = lo + step
					break
				}
				lo += step
			}
		} else {
			hi = gb
			for step := uint64(1); step < hi-lo; step *= 2 {
				if fits(hi - step) {
					lo = hi - step
					break
				}
				hi -= step
			}
		}
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if fits(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Float64frombits(lo)
}

// limitGuess solves f(sa, sb, sa+sb, ca, cb, dU) = ub for dU in real
// arithmetic: a hint for trieLimit's search, never its answer.
func limitGuess(kind distKind, sa, sb int, ca, cb, ub float64) float64 {
	switch kind {
	case distD1:
		return (ub + float64(sa)*ca + float64(sb)*cb) / float64(sa+sb)
	case distD2:
		return ub + ca + cb
	case distD3:
		return ub*math.Log(float64(sa+sb)) + ca + cb
	case distD4:
		return ub * (ca + cb + d4Epsilon)
	case distNC:
		return ub + cb
	}
	return 0
}
