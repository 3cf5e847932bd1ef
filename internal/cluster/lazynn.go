package cluster

import (
	"math"
	"slices"
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
//   - a merge that bears newborns runs one pass per newborn over the live
//     list, anchored on the newborn's cost strip (kernel.go) — one priced
//     sum per (newborn, live) pair serves both orientations — building the
//     newborn's row and column lists; a merge that finalizes its cluster
//     (Algorithm 1 absorbing a ripe cluster) does no pass at all;
//   - the initial build fills every singleton's row list. From
//     nnTrieRecords records on, under a built-in distance, each record
//     searches a prefix trie of the table best-first (buildNNTrie):
//     frontier keys are root-path envelope sums, the bound of a key b is
//     f(1, 1, 2, c_i, c_max, b/r) for the run's formula f (valid for
//     every built-in distance over finite costs), and only keys whose
//     bound is not above the list's discard bound are expanded or priced
//     — ~10 priced pairs a record at n=10000 instead of n−1. Below the
//     crossover, and under a user-supplied distance or an infinite cost,
//     buildNNTiled walks the strict lower triangle in
//     initBlock×nnTile tiles, each block row anchored on its own strip,
//     one priced sum per unordered pair, feeding row[i] and column[i]
//     which only block-owner workers write. Both leave identical lists.
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
// The strict lower triangle is walked once — one priced sum per unordered
// pair serves both orientations, half the LCA-cost sums that one scan per
// ordered pair would spend — in initBlock-row blocks sweeping the
// candidate ids in ascending nnTile-wide tiles, so a tile's arena rows are
// reused across the whole block. Each block row i is an anchor: its cost
// strip is loaded once per block into the span's strip slab, and every
// tile prices its candidates j < i against it. For a pair (i, j), j < i,
// dist(i, j) feeds row[i], owned by the block's worker; dist(j, i) feeds
// row[j], written directly when j is inside the worker's own span and
// folded into a span-local partial list otherwise. The partials are merged
// and the heap seeded on the driving goroutine afterwards; lists are
// fold-order independent, so any span geometry yields identical lists.
// Each block and each tile polls ctx, and each record of a block counts
// as one scan of its n−1 candidates.
func (e *Engine) buildNNTiled(n int) error {
	numBlocks := (n + initBlock - 1) / initBlock
	for bi := 0; bi < numBlocks; bi++ {
		if t := min((bi+1)*initBlock, n) - 1; t > 0 {
			e.stats.TilesScanned += int64((t + nnTile - 1) / nnTile)
		}
	}
	k := e.kern
	sl := k.stripLen()
	// No cluster has died yet, so the live list is the identity 0..n-1 and
	// live[jLo:jHi] names the candidate ids of a tile.
	live := e.liveList
	spans, err := e.pool.ForSpansCtx(e.ctx, numBlocks, 1, func(bLo, bHi, sp int) {
		floor := bLo * initBlock
		part := slices.Grow(e.spanInitPart[sp][:0], floor)[:floor]
		for j := range part {
			part[j].reset(e.depth)
		}
		e.spanInitPart[sp] = part
		strips, sums := e.spanStrips[sp], e.spanSums[sp]
		evals, records := int64(0), int64(0)
		for bi := bLo; bi < bHi && !e.cancelled(); bi++ {
			iLo := bi * initBlock
			iHi := min(iLo+initBlock, n)
			for i := max(iLo, 1); i < iHi; i++ {
				k.loadStrip(strips[(i-iLo)*sl:(i-iLo+1)*sl], i)
			}
			for jLo := 0; jLo < iHi-1; jLo += nnTile {
				if e.cancelled() {
					break
				}
				jHi := min(jLo+nnTile, iHi-1)
				for i := max(iLo, jLo+1); i < iHi; i++ {
					jEnd := min(jHi, i)
					cands := live[jLo:jEnd]
					k.price(strips[(i-iLo)*sl:(i-iLo+1)*sl], cands, sums)
					// dist(j, i) goes to the span-local partial below the
					// span's floor and to row j itself from there on.
					row, mid := &e.rowNN[i], min(max(floor, jLo), jEnd)
					if mid > jLo {
						evals += k.offerBuild(i, jLo, sums[:mid-jLo], row, part[jLo:mid])
					}
					if mid < jEnd {
						evals += k.offerBuild(i, mid, sums[mid-jLo:jEnd-jLo], row, e.rowNN[mid:jEnd])
					}
				}
			}
			records += int64(iHi - iLo)
		}
		e.distEvals.Add(evals)
		e.initScans.Add(records)
	})
	e.initScanEvals = e.initScans.Load() * int64(n-1)
	if err != nil {
		return err
	}
	for sp := 0; sp < spans; sp++ {
		for j := range e.spanInitPart[sp] {
			e.rowNN[j].mergeFrom(&e.spanInitPart[sp][j])
		}
		e.spanInitPart[sp] = e.spanInitPart[sp][:0]
	}
	for i := 0; i < n; i++ {
		e.pushRowHead(i)
	}
	return nil
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
// once on the driving goroutine: dist(owner, y) for a row list,
// dist(y, owner) for a column list. A rescan widens the list's coverage
// from its birth-order range to every current live cluster — pairs a
// newer cluster's column also covers — which is harmless: both covering
// entries demand the identical merge.
func (e *Engine) rescanList(owner int, dst *nnList, kind uint8) {
	numTiles := (len(e.liveList) + nnTile - 1) / nnTile
	e.stats.TilesScanned += int64(numTiles)
	e.kern.loadStrip(e.anchorStrip, owner)
	e.anchor, e.anchorKind = owner, kind
	spans := e.pool.ForSpans(numTiles, 1, e.rescanSpanFn)
	dst.reset(e.depth)
	evals := int64(0)
	for sp := 0; sp < spans; sp++ {
		evals += e.spanEvals[sp]
		dst.mergeFrom(&e.spanRowList[sp])
	}
	e.distEvals.Add(evals)
	e.mergeScans++
	e.mergeScanEvals += evals
}

// rescanSpan is one span of rescanList: tiles [tLo, tHi) of the live list,
// priced against the anchor strip into the span's row partial.
func (e *Engine) rescanSpan(tLo, tHi, sp int) {
	k, live, owner := e.kern, e.liveList, e.anchor
	l := &e.spanRowList[sp]
	l.reset(e.depth)
	sums := e.spanSums[sp]
	evals := int64(0)
	for t := tLo; t < tHi; t++ {
		tile := live[t*nnTile : min((t+1)*nnTile, len(live))]
		k.price(e.anchorStrip, tile, sums)
		evals += k.offerRescan(owner, tile, sums, l, e.anchorKind == entCol)
	}
	e.spanEvals[sp] = evals
}

// repairHeap restores the lazy-path invariants after a merge. A merge that
// finalized its cluster (no newborn) does nothing — no existing list
// references change meaning, and survivors whose cached partner died heal
// at pop time. A merge that bore newborns runs one pass per newborn over
// the live list (newborns sit at the list's tail; candidates are the
// clusters born before it, i.e. lower ids), anchored on the newborn's cost
// strip, loaded once on the driving goroutine: each candidate pair is
// priced once, feeding the newborn's row and column lists, which are then
// sealed with one heap entry each. Workers write only span-local scratch;
// list merges, pushes and counters happen on the driving goroutine in span
// order.
func (e *Engine) repairHeap(added []int) {
	if len(added) == 0 {
		e.heapMaybeCompact()
		return
	}
	numTiles := (len(e.liveList) + nnTile - 1) / nnTile
	for _, nb := range added {
		e.stats.TilesScanned += int64(numTiles)
		e.kern.loadStrip(e.anchorStrip, nb)
		e.anchor = nb
		spans := e.pool.ForSpans(numTiles, 1, e.repairSpanFn)
		row := &e.rowNN[nb]
		col := &e.colNN[nb]
		row.reset(e.depth)
		col.reset(e.depth)
		evals := int64(0)
		for sp := 0; sp < spans; sp++ {
			evals += e.spanEvals[sp]
			row.mergeFrom(&e.spanRowList[sp])
			col.mergeFrom(&e.spanColList[sp])
		}
		e.distEvals.Add(evals)
		e.mergeScans++
		e.mergeScanEvals += evals
		e.pushRowHead(nb)
		e.pushColHead(nb)
	}
	e.heapMaybeCompact()
}

// repairSpan is one span of a newborn pass: tiles [tLo, tHi) of the live
// list, priced against the newborn's strip into the span's row and column
// partials. Candidates born after the newborn (its siblings of the same
// merge) and the newborn itself are priced with their tile and skipped.
func (e *Engine) repairSpan(tLo, tHi, sp int) {
	k, live, nb := e.kern, e.liveList, e.anchor
	rl := &e.spanRowList[sp]
	cl := &e.spanColList[sp]
	rl.reset(e.depth)
	cl.reset(e.depth)
	sums := e.spanSums[sp]
	evals := int64(0)
	for t := tLo; t < tHi; t++ {
		if e.cancelled() {
			break
		}
		tile := live[t*nnTile : min((t+1)*nnTile, len(live))]
		k.price(e.anchorStrip, tile, sums)
		evals += k.offerNewborn(nb, tile, sums, rl, cl)
	}
	e.spanEvals[sp] = evals
}
