package cluster

import (
	"math"
	"slices"

	"kanon/internal/table"
)

// This file implements the lazy NN-heap merge selection of the
// agglomerative engine (DESIGN.md §17). A per-cluster nearest-neighbour
// sweep pays three O(arena) passes on every merge — the selection scan,
// the repair sweep (which re-offers the newborn to every live cluster) and
// the newborn scan. Here a merge touches no existing cluster at all:
//
//   - every cluster owns two fixed-depth nearest-neighbour caches, built
//     once at birth and never updated by later merges. Its ROW list caches
//     the lex top-depth of dist(c, y) over the clusters y born before
//     c; its COLUMN list caches the top of dist(y, c) over the same set.
//     Birth order is id order, so together the two lists of the younger
//     endpoint cover every ordered pair of live clusters exactly once;
//   - each list carries a discard bound ub — the lex-least candidate ever
//     rejected or evicted since the list was last built — so while the
//     head is lex-below ub the head is exactly the list's true current
//     minimum over live candidates, no matter how many entries died;
//   - a min-heap holds (at most) one entry per list: the list's head at
//     push time, keyed by the full lexicographic selection key
//     (d, row, wit) — Algorithm 1's argmin over ordered live pairs, ties
//     going to the lowest row id and then the lowest partner id.
//     Generation tags (rowGen/colGen, bumped on every re-push and on
//     death) let stale entries be discarded O(1) at pop;
//   - a popped fresh entry whose partner died heals lazily: prune the
//     list's dead prefix, and either the surviving head is still below ub
//     (push it — exact, no distance work) or the list is exhausted and the
//     cluster rescans over the dense live list (the rare DeadNNRescans
//     path, sharded in nnTile-sized tiles);
//   - a merge that bears newborns runs one pass per newborn over the
//     clusters born before it, building the newborn's row and column
//     lists; a merge that finalizes its cluster (Algorithm 1 absorbing a
//     ripe cluster) does no pass at all. Below the crossover, and under a
//     user-supplied distance or an infinite cost, the pass is flat: every
//     live cluster is priced against the newborn's cost strip (kernel.go),
//     one priced sum per pair serving both orientations — or, when the
//     newborn's closure is a repeated tuple (a twin merge), read from that
//     tuple's kept pair-sum row for every candidate whose closure is a
//     tuple too (tupleClasses); rescans do the same. Above it the run
//     keeps a singleton index (trie.go) and the pass is split: the live
//     merged clusters, ~4% of a pass's candidates on ADT, are priced flat,
//     and the live singletons are searched best-first over the record
//     trie from the newborn's closure (kernel.search), which prices only
//     the keys whose bound f(s, 1, s+1, c, c_max, b/r) for the row or
//     f(1, s, s+1, c_max, c, b/r) for the column is not above that list's
//     discard bound. The bound is at most the exact distance in both
//     orientations — the formulas fall in either cost and rise in dU — so
//     a pruned singleton is lex-above both final bounds and the lists are
//     the flat pass's;
//   - the initial build fills every singleton's row list. From
//     nnTrieRecords records on, under a built-in distance, each record
//     searches a prefix trie of the table best-first (buildNNTrie):
//     frontier keys are root-path envelope sums, the bound of a key b is
//     f(1, 1, 2, c_i, c_max, b/r) for the run's formula f (valid for
//     every built-in distance over finite costs), and only keys whose
//     bound is not above the list's discard bound are expanded or priced
//     — ~10 priced pairs a record at n=10000 instead of n−1. Below the
//     crossover, and under a user-supplied distance or an infinite cost,
//     buildNNTiled works on the table's tuple classes: it walks the
//     strict lower triangle of distinct tuples in initBlock×nnTile tiles,
//     each block class anchored on its own strip, one priced sum per
//     unordered pair of tuples, feeding the two classes' lists, which
//     only block-owner workers write, under the other class's records;
//     each record's row is its class's list plus its twins. Its spans are
//     cut at equal shares of the priced pairs, and it keeps the pair-sum
//     rows of the repeated tuples for the passes. Both builds leave
//     identical lists: a list is a function of its offered (d, id)
//     multiset, which is the same whether a pair of tuples is priced once
//     or once per pair of records. Nothing assumes that twins merge first:
//     a kept row serves whatever pass is anchored on its tuple, whenever
//     it runs.
//
// Determinism: heap keys are unique — (kind, owner, gen) never repeats
// because the owner's generation is bumped before every re-push — so the
// pop sequence is the total (d, row, wit, kind, gen) order of the pushed
// multiset, independent of push order, heap layout and worker count.
// List contents are push-order independent (the top-k set and the lex-min
// of the discarded remainder are functions of the candidate set only), so
// span-sharded builds fold to identical lists at every worker count. Stale
// or dead-referencing entries are lower bounds for their list's current
// key (a list's minimum only grows between pushes: entries only die), so
// discarding or healing them never skips the true minimum, and the first
// valid pop is exactly the lexicographic (d, i, j) minimum over ordered
// live pairs that the naive oracle of oracle_test.go scans for —
// clusterings are byte-identical to it.

// Tile geometry of the lazy path. nnTile is the candidate-tile width of
// the initial build, the newborn pass and single-cluster rescans: 512
// closure rows keep a tile's arena rows and fused-table lines hot while
// staying well under L1 for the bench schemas. initBlock is the
// record-block height of the initial build; it also fixes the build's span
// count, so a 100-record table still splits across ≥4 spans and pool
// panic/cancel semantics stay exercised at small n.
const (
	nnTile    = 512
	initBlock = 32
)

// Depth of the per-cluster neighbour caches. A list's arrays hold
// nnListCap entries; its depth, the number it keeps, is fixed per engine by
// nnDepth. The engine is exact at any depth: depth trades the inserts of a
// pass against the rescans of lists whose entries all died. A pass over L
// candidates makes about c + c·ln(L/c) inserts into a depth-c list, which
// is heavy in a ~250-record shard (a shard's records share hierarchy
// subtrees, so distances crowd) and a rounding error at L = 10000, where
// the rescans cost more: on ADT (EXPERIMENTS.md, "Sharded k at 100k") depth
// 4 made the 400 shards of n=100000 faster at every distance, and d1 at
// n=10000 unsharded 6–15% slower, with 7% more distance evaluations.
const (
	nnListCap        = 8
	nnShallowDepth   = 4
	nnShallowRecords = 512
)

// nnDepth is the neighbour-cache depth of an engine made for the given
// number of records: nnShallowDepth up to nnShallowRecords (the shards of
// a partitioned run at the default MaxChunk), nnListCap above.
func nnDepth(records int) int32 {
	if records <= nnShallowRecords {
		return nnShallowDepth
	}
	return nnListCap
}

// heapEnt is one lazy selection candidate: the merge pair (row, wit) at
// distance d = dist(row, wit), owned by either row's row list (entRow,
// owner = row) or wit's column list (entCol, owner = wit), stamped with the
// owner's generation at push time.
type heapEnt struct {
	d    float64
	row  int32
	wit  int32
	gen  uint32
	kind uint8
}

const (
	entRow = 0
	entCol = 1
)

// entLess orders entries by the total key (d, row, wit, kind, gen). The
// (d, row, wit) prefix is the selection order — cheapest merge,
// lowest cluster id, lowest neighbour id. kind and gen never decide a
// selection (two fresh entries can share (d, row, wit) only when a rescan
// widened a row's coverage over a pair a column also covers, and then both
// entries demand the identical merge); they make the order total so the pop
// sequence, and with it StalePops, is a pure function of the pushed set.
func entLess(a, b heapEnt) bool {
	if a.d != b.d {
		return a.d < b.d
	}
	if a.row != b.row {
		return a.row < b.row
	}
	if a.wit != b.wit {
		return a.wit < b.wit
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.gen < b.gen
}

// lexLess is the (distance, id) lexicographic candidate order shared by the
// lists and their discard bounds.
func lexLess(d1 float64, i1 int32, d2 float64, i2 int32) bool {
	return d1 < d2 || (d1 == d2 && i1 < i2)
}

// nnList is one fixed-depth nearest-neighbour cache: the lex top-c
// candidates seen since the last full build, sorted ascending, plus the
// discard bound (ubD, ubID) — the lex-least candidate rejected or evicted
// since then (+Inf when none was). Every live candidate outside the list
// is lex-≥ the bound, so whenever the head is lex-below the bound the head
// is the exact current minimum. (hd, hw) mirrors the key of the list's
// current fresh heap entry (hw < 0: none), letting heap compaction rebuild
// the fresh entry set without re-healing any list.
type nnList struct {
	d    [nnListCap]float64
	id   [nnListCap]int32
	n    int32
	c    int32 // the depth, 1 ≤ c ≤ nnListCap
	tail float64
	ubD  float64
	ubID int32
	hd   float64
	hw   int32
}

// reset empties the list, sets its depth to c and lifts the discard bound.
func (l *nnList) reset(c int32) {
	l.n = 0
	l.c = c
	l.tail = math.Inf(1)
	l.ubD = math.Inf(1)
	l.ubID = 0
	l.hw = -1
}

// offer folds candidate (d, id) into the list, demoting the evicted or
// rejected candidate into the discard bound. The resulting (set, bound)
// pair is offer-order independent: the set is the lex top-c of everything
// offered since reset, the bound the lex-min of the rest.
//
// The guard, small enough to inline, rejects most candidates of a long
// scan with two comparisons. tail is the tail's distance once the list is
// full and +Inf while it has room, so a list with room takes every
// candidate, a NaN included (NaN > +Inf is false). A full list skips a
// candidate farther than both the tail and the bound, which insert would
// leave out of list and bound (it is lex-below neither). Every other
// candidate takes the full path, which is exact on its own and orders ties
// by id: a NaN offered to a full list, never lex-below anything, changes
// nothing there, and a NaN tail (a user distance put a NaN in the list,
// which breaks its order) lets every candidate through. Without NaN
// distances the bound's distance is never below the tail's — the bound
// starts at +Inf and only ever takes a candidate that was not lex-below the
// tail, or the evicted tail itself.
func (l *nnList) offer(d float64, id int32) {
	if !(d > l.tail) || d <= l.ubD {
		l.insert(d, id)
	}
}

// insert is offer without the guard: the full top-c insertion with its
// discard-bound update.
func (l *nnList) insert(d float64, id int32) {
	n := l.n
	if n == l.c {
		t := n - 1
		if !lexLess(d, id, l.d[t], l.id[t]) {
			if lexLess(d, id, l.ubD, l.ubID) {
				l.ubD, l.ubID = d, id
			}
			return
		}
		if lexLess(l.d[t], l.id[t], l.ubD, l.ubID) {
			l.ubD, l.ubID = l.d[t], l.id[t]
		}
		n--
	}
	i := n
	for i > 0 && lexLess(d, id, l.d[i-1], l.id[i-1]) {
		l.d[i], l.id[i] = l.d[i-1], l.id[i-1]
		i--
	}
	l.d[i], l.id[i] = d, id
	l.n = n + 1
	if l.n == l.c {
		l.tail = l.d[n]
	}
}

// mergeFrom folds another list of the same depth (a span-local partial
// over a disjoint candidate range) into l. Discards recorded by either side
// stay valid for the union: a candidate discarded from a partial already
// had c lex-smaller candidates there, so it cannot re-enter the merged
// top-c.
func (l *nnList) mergeFrom(o *nnList) {
	for k := int32(0); k < o.n; k++ {
		l.offer(o.d[k], o.id[k])
	}
	if lexLess(o.ubD, o.ubID, l.ubD, l.ubID) {
		l.ubD, l.ubID = o.ubD, o.ubID
	}
}

// pruneDead drops dead entries from the front of the list. Interior dead
// entries are left in place — they are skipped when they surface.
func (l *nnList) pruneDead(alive []bool) {
	for l.n > 0 && !alive[l.id[0]] {
		n := l.n
		copy(l.d[:n-1], l.d[1:n])
		copy(l.id[:n-1], l.id[1:n])
		l.n = n - 1
		l.tail = math.Inf(1)
	}
}

// headExact reports whether the list's head is provably the exact current
// minimum over its live candidate range: the front is alive (caller
// pruned) and lex-below the discard bound.
func (l *nnList) headExact() bool {
	return l.n > 0 && lexLess(l.d[0], l.id[0], l.ubD, l.ubID)
}

// heapPushEnt pushes one candidate entry.
func (e *Engine) heapPushEnt(ent heapEnt) {
	e.stats.HeapPushes++
	e.nnHeap = append(e.nnHeap, ent)
	h := e.nnHeap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pushRowHead pushes cluster id's current row head (which the caller has
// established is exact) under id's current row generation. An empty list
// (cluster 0 at init, or a rescan with no live partner) pushes nothing.
func (e *Engine) pushRowHead(id int) {
	l := &e.rowNN[id]
	if l.n == 0 {
		l.hw = -1
		return
	}
	l.hd, l.hw = l.d[0], l.id[0]
	e.heapPushEnt(heapEnt{d: l.d[0], row: int32(id), wit: l.id[0], gen: e.rowGen[id], kind: entRow})
}

// pushColHead is pushRowHead for the column list: the entry's merge pair
// puts the cached argmin in the row seat and the owning cluster in the
// witness seat, keeping the heap key aligned with the selection order.
func (e *Engine) pushColHead(id int) {
	l := &e.colNN[id]
	if l.n == 0 {
		l.hw = -1
		return
	}
	l.hd, l.hw = l.d[0], l.id[0]
	e.heapPushEnt(heapEnt{d: l.d[0], row: l.id[0], wit: int32(id), gen: e.colGen[id], kind: entCol})
}

// heapPop removes and returns the minimum entry.
func (e *Engine) heapPop() (heapEnt, bool) {
	h := e.nnHeap
	if len(h) == 0 {
		return heapEnt{}, false
	}
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.nnHeap = h[:last]
	siftDown(e.nnHeap, 0)
	return top, true
}

func siftDown(h []heapEnt, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && entLess(h[l], h[s]) {
			s = l
		}
		if r < len(h) && entLess(h[r], h[s]) {
			s = r
		}
		if s == i {
			return
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
}

// heapMaybeCompact rebuilds the heap once stale entries dominate, bounding
// it at O(live) amortized. Every live list mirrors its fresh entry's key in
// (hd, hw), so the rebuild reproduces the fresh entry set exactly — no list
// is pruned or healed, and generations are untouched. The threshold and the
// rebuild are functions of worker-invariant state only.
func (e *Engine) heapMaybeCompact() {
	if len(e.nnHeap) <= 4*e.nLive+64 {
		return
	}
	e.nnHeap = e.nnHeap[:0]
	for _, id := range e.liveList {
		if l := &e.rowNN[id]; l.hw >= 0 {
			e.nnHeap = append(e.nnHeap, heapEnt{d: l.hd, row: id, wit: l.hw, gen: e.rowGen[id], kind: entRow})
		}
		if l := &e.colNN[id]; l.hw >= 0 {
			e.nnHeap = append(e.nnHeap, heapEnt{d: l.hd, row: l.hw, wit: id, gen: e.colGen[id], kind: entCol})
		}
	}
	h := e.nnHeap
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// tupleClasses groups a run's records by tuple: its records sorted by
// (tuple, index), as the record trie sorts them, cut into runs of equal
// tuples, the classes, numbered in that order. Records of one class have
// one closure and one cost, so a pair cost that involves them is the same
// for each: the tiled initial build prices each pair of classes once
// (buildNNTiled), and keeps the pair-sum row of every class that holds
// two or more records, from which a flat newborn pass or rescan anchored
// on such a class's tuple reads the sums of its leaf-tuple candidates
// (keptRow). The arrays are sized by the engine's largest table and kept
// across runs.
type tupleClasses struct {
	recs  []int32   // the run's record indices sorted by (tuple, index)
	start []int32   // class c holds recs[start[c]:start[c+1]], in index order
	reps  []int32   // reps[c] = recs[start[c]], the class's least record
	of    []int32   // of[j]: record j's class
	slot  []int32   // slot[c]: class c's kept row, sums[slot·m:(slot+1)·m], or −1
	sums  []float64 // the kept rows: one pair sum per (kept class, class)
	lists []nnList  // the tiled build's class lists
}

// keptBudget caps the kept rows of a run, in pair sums: the most that a
// table below the trie crossover can need, so every run that takes the
// tiled build under a built-in distance keeps all its rows (18 MB at
// 2999 records). t classes of two or more records leave at most n − t
// classes, so the rows number at most t(n − t) ≤ n²/4. A larger table
// reaches the tiled build only under a user-supplied distance or an
// infinite cost; there a class that would pass the cap keeps no row, and
// the passes anchored on its tuple price their candidates.
const keptBudget = nnTrieRecords * nnTrieRecords / 4

// classify sorts tbl's records into tuple classes, growing the arrays to
// hold a table of max records, and drops the previous run's kept rows.
func (c *tupleClasses) classify(tbl *table.Table, max int) {
	n := tbl.Len()
	c.recs = sortByTuple(tbl, slices.Grow(c.recs[:0], max))
	c.start = slices.Grow(c.start[:0], max+1)
	c.reps = slices.Grow(c.reps[:0], max)
	c.of = slices.Grow(c.of[:0], max)[:n]
	for p, j := range c.recs {
		if p == 0 || !slices.Equal(tbl.Records[c.recs[p-1]], tbl.Records[j]) {
			c.start = append(c.start, int32(p))
			c.reps = append(c.reps, j)
		}
		c.of[j] = int32(len(c.reps) - 1)
	}
	c.start = append(c.start, int32(n))
	c.slot = slices.Grow(c.slot[:0], max)[:len(c.reps)]
	for i := range c.slot {
		c.slot[i] = -1
	}
}

// members returns class a's records, at most lim of them, least first.
func (c *tupleClasses) members(a, lim int) []int32 {
	lo := c.start[a]
	return c.recs[lo:min(c.start[a+1], lo+int32(lim))]
}

// keepRows gives a kept row to every class of two or more records, in
// class order, while the rows fit keptBudget, and returns the rows, nil
// when no class keeps one. The first run that keeps a row sizes the rows
// for the engine's largest table, so later runs of a partitioned release
// allocate none.
func (c *tupleClasses) keepRows(records int) []float64 {
	m := len(c.reps)
	twins := 0
	for a := range m {
		if c.start[a+1]-c.start[a] > 1 {
			twins++
		}
	}
	if twins == 0 {
		return nil
	}
	if cap(c.sums) < min(twins*m, keptBudget) {
		c.sums = make([]float64, min(records*records/4, keptBudget))
	}
	c.sums = c.sums[:cap(c.sums)]
	t := int32(0)
	for a := range m {
		if c.start[a+1]-c.start[a] > 1 && int(t+1)*m <= len(c.sums) {
			c.slot[a] = t
			t++
		}
	}
	return c.sums
}

// keptRow returns the kept pair-sum row of cluster id's tuple class, nil
// when id's closure is not a class's tuple or its class keeps no row.
// Entry b is the pair sum of the class's tuple with class b's.
func (e *Engine) keptRow(id int) []float64 {
	c := &e.tc
	if a := e.cls[id]; a >= 0 {
		if t := int(c.slot[a]); t >= 0 {
			m := len(c.reps)
			return c.sums[t*m : (t+1)*m : (t+1)*m]
		}
	}
	return nil
}

// buildNNTiled is the initial nearest-neighbour build. All n singletons
// are born together, so the birth-order coverage rule degenerates: every
// row list caches the lex top-depth over ALL other clusters — both
// orientations of every pair land in a row — and no initial cluster has a
// column list. (Init columns would be redundant, and worse: under a hub
// distance every column's argmin collapses onto the lowest live ids, so
// the columns would mass-heal on every merge and drag the path back to
// cubic. Columns exist only for newborns, whose candidate range they keep
// narrow.)
//
// The build works on the run's tuple classes (tupleClasses): a record's
// distance to another depends only on their two tuples, so each class
// pair is priced and evaluated once, and every record pair is offered the
// distances of its class pair. The strict lower triangle of classes is
// walked once — one priced sum per unordered pair serves both
// orientations — in initBlock-class blocks sweeping the candidate classes
// in nnTile-wide tiles, so a tile's arena rows are reused across the whole
// block. Each block class a is an anchor: the cost strip of its
// least record is loaded once per block into the span's strip slab, and
// every tile prices the least records of its classes b < a against it.
// dist(a, b) feeds class a's list, owned by the block's worker, under
// each record of b; dist(b, a) feeds class b's list under each record of
// a, written directly when b is inside the worker's own span and folded
// into a span-local partial list otherwise. The class lists thus hold,
// for each class, what its records' rows are offered by other classes;
// each record's row is then its class list plus its twins, the other
// records of its class, at the class's own distance. A list keeps the lex
// top-depth of what it is offered and the lex-least of the rest, and
// candidates of one distance order by id, so only a class's depth + 1
// least records are offered anywhere: the others could enter neither the
// list nor its discard bound. The partials are merged and the heap seeded
// on the driving goroutine afterwards; lists are fold-order independent,
// so any span geometry yields identical lists, and they are the lists a
// walk over every record pair would leave. The spans split the blocks by
// priced pairs, not by count (tiledBounds). Each block and each tile polls
// ctx, and each class of a block counts as one scan of its m−1 candidate
// classes.
func (e *Engine) buildNNTiled(n int) error {
	c := &e.tc
	m := len(c.reps)
	kept := c.keepRows(max(n, e.records))
	numBlocks := (m + initBlock - 1) / initBlock
	for bi := 0; bi < numBlocks; bi++ {
		if t := min((bi+1)*initBlock, m) - 1; t > 0 {
			e.stats.TilesScanned += int64((t + nnTile - 1) / nnTile)
		}
	}
	k := e.kern
	sl := k.stripLen()
	lim := int(e.depth) + 1
	c.lists = slices.Grow(c.lists[:0], max(n, e.records))[:m]
	for a := range c.lists {
		c.lists[a].reset(e.depth)
	}
	lists, reps, slot := c.lists, c.reps, c.slot
	start, recs := c.start, c.recs
	bounds := e.tiledBounds(m, numBlocks)
	spans, err := e.pool.ForSpansCtx(e.ctx, len(bounds)-1, 1, func(sLo, sHi, sp int) {
		bLo, bHi := bounds[sLo], bounds[sHi]
		floor := bLo * initBlock
		part := slices.Grow(e.spanInitPart[sp][:0], floor)[:floor]
		for j := range part {
			part[j].reset(e.depth)
		}
		e.spanInitPart[sp] = part
		strips, sums, dists := e.spanStrips[sp], e.spanSums[sp], e.spanDists[sp]
		evals, priced, classes := int64(0), int64(0), int64(0)
		for bi := bLo; bi < bHi && !e.cancelled(); bi++ {
			iLo := bi * initBlock
			iHi := min(iLo+initBlock, m)
			for a := max(iLo, 1); a < iHi; a++ {
				k.loadStrip(strips[(a-iLo)*sl:(a-iLo+1)*sl], int(reps[a]))
			}
			// The tiles, and the candidates of a tile, go downwards from
			// the anchor: classes adjacent in tuple order share their
			// leading values and tend to be near, so a row list meets its
			// nearest candidates first and rejects most of the rest at
			// its guard.
			for jLo := (iHi - 2) / nnTile * nnTile; iHi > 1 && jLo >= 0; jLo -= nnTile {
				if e.cancelled() {
					break
				}
				jHi := min(jLo+nnTile, iHi-1)
				for a := max(iLo, jLo+1); a < iHi; a++ {
					jEnd := min(jHi, a)
					w := jEnd - jLo
					k.price(strips[(a-iLo)*sl:(a-iLo+1)*sl], reps[jLo:jEnd], sums)
					priced += int64(w)
					if kept != nil {
						if t := int(slot[a]); t >= 0 {
							copy(kept[t*m+jLo:t*m+jEnd], sums[:w])
						}
						for q, t := range slot[jLo:jEnd] {
							if t >= 0 {
								kept[int(t)*m+a] = sums[q]
							}
						}
					}
					dRow, dCol := dists[:w], dists[nnTile:nnTile+w]
					evals += k.evalBoth(int(reps[a]), reps[jLo:jEnd], sums, dRow, dCol)
					// dist(b, a) goes to the span-local partial below the
					// span's floor and to class b's list from there on. A
					// class of one record, the common case, takes one offer.
					row, own := &lists[a], c.members(a, lim)
					for q := w - 1; q >= 0; q-- {
						b := jLo + q
						if lo := start[b]; start[b+1] == lo+1 {
							row.offer(dRow[q], recs[lo])
						} else {
							for _, j := range c.members(b, lim) {
								row.offer(dRow[q], j)
							}
						}
						col := &lists[b]
						if b < floor {
							col = &part[b]
						}
						for _, i := range own {
							col.offer(dCol[q], i)
						}
					}
				}
			}
			classes += int64(iHi - iLo)
		}
		e.distEvals.Add(evals)
		e.priced.Add(priced)
		e.initScans.Add(classes)
	})
	e.initScanEvals = e.initScans.Load() * int64(m-1)
	if err != nil {
		return err
	}
	for sp := 0; sp < spans; sp++ {
		for b := range e.spanInitPart[sp] {
			lists[b].mergeFrom(&e.spanInitPart[sp][b])
		}
		e.spanInitPart[sp] = e.spanInitPart[sp][:0]
	}
	// Each record's row: its class list, and its twins at the distance of
	// the class's tuple to itself, whose pair sum is the tuple's leaf cost
	// sum (cost(LCA(v, v)) is cost(v)) and whose dU is the class's cost.
	evals := int64(0)
	for a := range m {
		mem := c.members(a, n)
		if len(mem) == 1 {
			e.rowNN[mem[0]] = lists[a]
			continue
		}
		rep := int(reps[a])
		sum := k.leafSum(rep)
		if t := int(slot[a]); t >= 0 {
			kept[t*m+a] = sum
		}
		ca := k.cost[rep]
		d := k.eval(1, 1, 2, ca, ca, sum/float64(k.r))
		evals++
		for _, i := range mem {
			row := &e.rowNN[i]
			*row = lists[a]
			twins := 0
			for _, j := range mem {
				if twins == lim {
					break
				}
				if j != i {
					row.offer(d, j)
					twins++
				}
			}
		}
	}
	e.distEvals.Add(evals)
	e.initScanEvals += evals
	e.classSums += int64(n)*int64(n-1)/2 - int64(m)*int64(m-1)/2
	for i := 0; i < n; i++ {
		e.pushRowHead(i)
	}
	return nil
}

// tiledBounds splits the initial build's numBlocks blocks into at most
// one span per worker, span s taking blocks [bounds[s], bounds[s+1]). Row
// i prices the i pairs below it, so the blocks up to b price m(m−1)/2 of
// the n(n−1)/2 pairs, m = b·initBlock: span s starts at the first block
// whose preceding blocks price at least s/spans of them, and every span
// takes at least one block. An even split by block count leaves the last
// span about 3/4 of the pairs at 2 workers. The bounds depend only on n
// and the pool size.
func (e *Engine) tiledBounds(n, numBlocks int) []int {
	spans := min(e.pool.Size(), numBlocks)
	bounds := e.spanBounds[:spans+1]
	total, b := int64(n)*int64(n-1)/2, 0
	for s := 1; s < spans; s++ {
		for b = max(b, s); b < numBlocks-(spans-s); b++ {
			if m := int64(b * initBlock); m*(m-1)/2*int64(spans) >= int64(s)*total {
				break
			}
		}
		bounds[s] = b
	}
	bounds[0], bounds[spans] = 0, numBlocks
	return bounds
}

// selectPairHeap pops the heap down to the current best merge pair (a, b)
// — the lex-least (d, row, wit) over all ordered live pairs. Stale entries
// (generation mismatch) are discarded O(1); a fresh entry whose partner
// died heals here, lazily: prune the list's dead prefix and either re-push
// its still-exact head or run the rare full rescan. Returns a = -1 only on
// cancellation or an empty heap (single live cluster).
func (e *Engine) selectPairHeap() (a, b int) {
	for {
		ent, ok := e.heapPop()
		if !ok {
			return -1, -1
		}
		// A fresh generation implies the owner is alive (death bumps it)
		// and the entry is the owner's current head: a live partner
		// settles the pop.
		row, wit := int(ent.row), int(ent.wit)
		owner, partner, gen, list := row, wit, e.rowGen, &e.rowNN[row]
		if ent.kind == entCol {
			owner, partner, gen, list = wit, row, e.colGen, &e.colNN[wit]
		}
		if ent.gen != gen[owner] {
			e.stats.StalePops++
			continue
		}
		if e.alive[partner] {
			return row, wit
		}
		if e.cancelled() {
			return -1, -1
		}
		e.healList(list, owner, ent.kind)
	}
}

// healList restores a list whose cached head died: prune the dead prefix,
// and if the surviving head is no longer provably exact (dead entries may
// have exposed the discard bound) rebuild the list by a full rescan over
// the live list. Either way the owner's generation advances and the new
// head is pushed.
func (e *Engine) healList(l *nnList, owner int, kind uint8) {
	l.pruneDead(e.alive)
	if !l.headExact() {
		e.stats.DeadNNRescans++
		e.rescanList(owner, l, kind)
	}
	if kind == entRow {
		e.rowGen[owner]++
		e.pushRowHead(owner)
	} else {
		e.colGen[owner]++
		e.pushColHead(owner)
	}
}

// rescanList rebuilds one list exactly over the dense live list, sharded
// into nnTile-sized tiles and anchored on the owner's cost strip, loaded
// once on the driving goroutine, or on its tuple class's kept row
// (loadAnchor): dist(owner, y) for a row list, dist(y, owner) for a
// column list. A rescan widens the list's coverage from its birth-order
// range to every current live cluster — pairs a newer cluster's column
// also covers — which is harmless: both covering entries demand the
// identical merge.
func (e *Engine) rescanList(owner int, dst *nnList, kind uint8) {
	numTiles := (len(e.liveList) + nnTile - 1) / nnTile
	e.stats.TilesScanned += int64(numTiles)
	e.loadAnchor(owner)
	e.anchorKind = kind
	spans := e.pool.ForSpans(numTiles, 1, e.rescanSpanFn)
	dst.reset(e.depth)
	evals := int64(0)
	for sp := 0; sp < spans; sp++ {
		evals += e.spanEvals[sp]
		e.classSums += e.spanServed[sp]
		dst.mergeFrom(&e.spanRowList[sp])
	}
	e.distEvals.Add(evals)
	e.mergeScans++
	e.mergeScanEvals += evals
}

// loadAnchor makes cluster id the anchor of a pass: its cost strip, and
// the kept pair-sum row of its tuple class when it has one (keptRow),
// which the pass reads its leaf-tuple candidates' sums from (priceFrom).
func (e *Engine) loadAnchor(id int) {
	e.kern.loadStrip(e.anchorStrip, id)
	e.anchor, e.anchorSums = id, e.keptRow(id)
}

// priceAnchor prices the candidates ids against the pass's anchor into
// sums, and returns those served from its kept row.
func (e *Engine) priceAnchor(ids []int32, sums []float64) int64 {
	if e.anchorSums != nil {
		return e.kern.priceFrom(e.anchorStrip, e.anchorSums, e.cls, ids, sums)
	}
	e.kern.price(e.anchorStrip, ids, sums)
	return 0
}

// rescanSpan is one span of rescanList: tiles [tLo, tHi) of the live list,
// priced against the anchor strip into the span's row partial.
func (e *Engine) rescanSpan(tLo, tHi, sp int) {
	k, live, owner := e.kern, e.liveList, e.anchor
	l := &e.spanRowList[sp]
	l.reset(e.depth)
	sums := e.spanSums[sp]
	evals, served, priced := int64(0), int64(0), int64(0)
	for t := tLo; t < tHi; t++ {
		tile := live[t*nnTile : min((t+1)*nnTile, len(live))]
		s := e.priceAnchor(tile, sums)
		served, priced = served+s, priced+int64(len(tile))-s
		evals += k.offerRescan(owner, tile, sums, l, e.anchorKind == entCol)
	}
	e.priced.Add(priced)
	e.spanEvals[sp], e.spanServed[sp] = evals, served
}

// repairHeap restores the lazy-path invariants after a merge. A merge that
// finalized its cluster (no newborn) does nothing — no existing list
// references change meaning, and survivors whose cached partner died heal
// at pop time. A merge that bore newborns runs one pass per newborn over
// the clusters born before it (newborns sit at the live list's tail;
// candidates are the lower ids), building the newborn's row and column
// lists, which are then sealed with one heap entry each. Under the run's
// singleton index the pass is split (newbornSplit), otherwise flat over
// the live list; both leave the same lists.
func (e *Engine) repairHeap(added []int) {
	for _, nb := range added {
		if e.idx != nil && !math.IsInf(e.kern.cost[nb], 0) {
			e.newbornSplit(nb)
		} else {
			e.newbornPrice(nb, e.liveList)
		}
		e.mergeScans++
		e.pushRowHead(nb)
		e.pushColHead(nb)
	}
	e.heapMaybeCompact()
}

// newbornSplit is the newborn pass under the run's singleton index: the
// live merged clusters are priced flat, and then the live singletons born
// before nb are searched best-first over the index's trie from nb's
// closure (kernel.search), with the bounds the merged candidates left in
// the lists. A singleton the search prunes is lex-above both final
// bounds, so the lists are the flat pass's. A newborn of infinite cost,
// whose bounds could be NaN, takes the flat pass.
func (e *Engine) newbornSplit(nb int) {
	x, k := e.idx, e.kern
	e.newbornPrice(nb, x.merged)
	if x.live[0] == 0 {
		return
	}
	for a := range k.r {
		x.t.Flatten(x.cost, a, e.anchorStrip[k.off[a]:k.off[a+1]])
	}
	f := x.f
	f.resetNodes(k.row(nb))
	f.below = int32(nb)
	if k.fillWalks > 0 {
		k.walks.Add(k.fillWalks) // the envelope rows
	}
	priced, sums := k.search(f, x.cost, -1, int(k.size[nb]), k.cost[nb], x.cmax, &e.rowNN[nb], &e.colNN[nb])
	e.priced.Add(priced)
	e.distEvals.Add(2 * priced)
	e.mergeScanEvals += 2 * priced
	e.mergeBoundSums += sums
}

// newbornPrice resets nb's row and column lists and prices nb against the
// candidates cands, sharded into nnTile-sized tiles and anchored on nb's
// cost strip, loaded once on the driving goroutine, or on its tuple
// class's kept row (loadAnchor): each candidate pair is priced once,
// feeding both lists. Workers write only span-local scratch; list merges
// and counters happen on the driving goroutine in span order.
func (e *Engine) newbornPrice(nb int, cands []int32) {
	numTiles := (len(cands) + nnTile - 1) / nnTile
	e.stats.TilesScanned += int64(numTiles)
	e.loadAnchor(nb)
	e.cands = cands
	spans := e.pool.ForSpans(numTiles, 1, e.repairSpanFn)
	row := &e.rowNN[nb]
	col := &e.colNN[nb]
	row.reset(e.depth)
	col.reset(e.depth)
	evals := int64(0)
	for sp := 0; sp < spans; sp++ {
		evals += e.spanEvals[sp]
		e.classSums += e.spanServed[sp]
		row.mergeFrom(&e.spanRowList[sp])
		col.mergeFrom(&e.spanColList[sp])
	}
	e.distEvals.Add(evals)
	e.mergeScanEvals += evals
}

// repairSpan is one span of newbornPrice: tiles [tLo, tHi) of the
// candidates, priced against the newborn's strip into the span's row and
// column partials. Candidates born after the newborn (its siblings of the
// same merge) and the newborn itself are priced with their tile and
// skipped.
func (e *Engine) repairSpan(tLo, tHi, sp int) {
	k, cands, nb := e.kern, e.cands, e.anchor
	rl := &e.spanRowList[sp]
	cl := &e.spanColList[sp]
	rl.reset(e.depth)
	cl.reset(e.depth)
	sums := e.spanSums[sp]
	evals, served, priced := int64(0), int64(0), int64(0)
	for t := tLo; t < tHi; t++ {
		if e.cancelled() {
			break
		}
		tile := cands[t*nnTile : min((t+1)*nnTile, len(cands))]
		s := e.priceAnchor(tile, sums)
		served, priced = served+s, priced+int64(len(tile))-s
		evals += k.offerNewborn(nb, tile, sums, rl, cl)
	}
	e.priced.Add(priced)
	e.spanEvals[sp], e.spanServed[sp] = evals, served
}
