package cluster

import (
	"math"
	"slices"
	"sync/atomic"

	"kanon/internal/table"
)

// This file implements the flat distance kernel of the agglomerative
// engine (DESIGN.md §12). Evaluated naively, dist(A, B) walks
// per-attribute LCA pointer chains over one heap-allocated GenRecord per
// live cluster and dispatches through the Distance interface — three
// indirections per attribute on a path executed millions of times. The
// kernel removes all of them:
//
//   - every pair pass of the engine fixes one side, the anchor, for the
//     whole pass. loadStrip copies the anchor's r cost rows
//     (Space.LCACostRow: cost(LCA(u, v)) for every node v) end to end into
//     one contiguous strip, and price sums a candidate's cost as
//     Σ_j strip[off[j]+row[j]]: one load per attribute, with no table
//     stride, no per-attribute slice header and no tabled/walked branch.
//     An attribute whose nodes² exceeds hierarchy.LCATableBudget has no
//     fused table; its row is filled by walk-up, once per anchor;
//   - live-cluster closures live in one struct-of-arrays arena
//     (rows []int32, stride NumAttrs) with slot reuse on kill/push, so a
//     candidate streams one contiguous row instead of chasing a heap
//     GenRecord; per-id costs and sizes sit in parallel flat arrays;
//   - the Distance interface is resolved once at kernel construction into
//     a distKind. The pair passes' offer helpers (offerBuild, offerNewborn,
//     offerRescan) switch on it once per priced run and evaluate the
//     formula inline in the loop that offers each candidate to its
//     neighbour lists, so a priced pair costs no function call; eval, the
//     per-call form, serves the shrink and absorb paths. User-supplied
//     distances go through the interface.
//
// The kernel is byte-exact against the naive evaluation: every float64
// sum runs in the same (ascending-attribute) order over the same cells
// cost(LCA(u, v)), the cost rows come from the same CostAt/LCA functions,
// and every evaluation calls the formula functions the Eval methods of
// distance.go call, on the same operands in the same order (see
// FuzzDistKernelEquivalence and the naive Algorithm 1/2 oracle of
// oracle_test.go).
//
// Concurrency: the arena is mutated (add/kill) only on the engine's
// driving goroutine, between pool calls; pool workers only read rows of
// live ids, which are immutable while the workers run, and write only
// strips and sums of their own span. Counters are plain ints maintained
// on the driving goroutine, except walks, which strip fills in pool
// workers add to atomically.

// distKind enumerates the built-in distances for devirtualized evaluation.
type distKind uint8

const (
	distCustom distKind = iota // user-supplied: dispatch through the interface
	distD1
	distD2
	distD3
	distD4
	distNC
)

// resolveDistKind classifies a Distance once, at engine construction, so
// the hot loop never touches the interface for the built-in distances.
func resolveDistKind(d Distance) distKind {
	switch d.(type) {
	case D1:
		return distD1
	case D2:
		return distD2
	case D3:
		return distD3
	case D4:
		return distD4
	case NC:
		return distNC
	default:
		return distCustom
	}
}

// kernel is the flat distance kernel of one engine run.
type kernel struct {
	s *Space
	r int // NumAttrs, the arena row stride

	kind   distKind
	custom Distance // interface fallback for distCustom

	// Per-attribute fused LCA-cost tables and raw LCA tables (shared,
	// read-only; nil entries fall back to walk-up) and node counts (the
	// table row stride), read by the per-merge closure and absorb paths.
	fused   [][]float64
	lcaTabs [][]int32
	nn      []int
	tabled  int // attributes served by a fused table

	// off[j] is where attribute j's cost row starts in a strip; off[r] is
	// the strip length, Σ_j NumNodes. fillWalks is the number of LCA
	// walk-ups one strip fill performs: the node counts of the walked
	// attributes.
	off       []int
	fillWalks int64

	// walks counts the LCA walk-ups actually performed: fillWalks per
	// strip fill plus one per walked attribute in the closure, shrink and
	// absorb paths. Strip fills run in pool workers, hence atomic.
	walks atomic.Int64

	// Closure arena: rows holds one stride-r row per slot; rowOf maps a
	// cluster id to its slot index (slots are recycled, ids are not), so
	// id's row starts at rows[rowOf[id]*r]. cost and size are per-id flat
	// arrays.
	rows  []int32
	rowOf []int32
	cost  []float64
	size  []int32
	free  []int32 // recycled slot indices, LIFO

	// scratch is the stride-r merge buffer, reused across merges.
	scratch []int32

	// logTab[i] = math.Log(float64(i)) for every reachable union size
	// (≤ the table's record count), filled by reserve. D3 divides by
	// log|A∪B| on every evaluation — with the table that is one load
	// instead of a libm call, bit-identical because math.Log is a pure
	// function of its input.
	logTab []float64

	// Arena occupancy counters (driving goroutine only).
	reuses   int64
	peakRows int
}

// newKernel builds the kernel for one engine run over s, resolving the
// distance once and attaching the space's shared fused tables.
func newKernel(s *Space, d Distance) *kernel {
	k := &kernel{s: s, r: s.NumAttrs(), custom: d}
	k.kind = resolveDistKind(d)
	k.fused = s.fusedTables()
	k.lcaTabs = make([][]int32, k.r)
	k.nn = make([]int, k.r)
	k.off = make([]int, k.r+1)
	for j, h := range s.Hiers {
		k.lcaTabs[j] = h.LCATable()
		k.nn[j] = h.NumNodes()
		k.off[j+1] = k.off[j] + k.nn[j]
		if k.fused[j] != nil {
			k.tabled++
		} else {
			k.fillWalks += int64(k.nn[j])
		}
	}
	k.scratch = make([]int32, k.r)
	return k
}

// reserve pre-sizes the per-id arrays for ids clusters and fills the log
// table for unions of up to n records, avoiding regrowth churn during the
// initial singleton build.
func (k *kernel) reserve(ids, n int) {
	if cap(k.rowOf) < ids {
		k.rowOf = make([]int32, 0, ids)
		k.cost = make([]float64, 0, ids)
		k.size = make([]int32, 0, ids)
		k.rows = make([]int32, 0, ids*k.r)
		k.free = make([]int32, 0, n)
	}
	if len(k.logTab) < n+1 {
		k.logTab = make([]float64, n+1)
		for i := 1; i <= n; i++ {
			k.logTab[i] = math.Log(float64(i))
		}
	}
}

// reset empties the arena and zeroes its counters for the next run of the
// engine, keeping every array's capacity and the log table, then reserves
// as reserve does.
func (k *kernel) reset(ids, n int) {
	k.rowOf, k.cost, k.size = k.rowOf[:0], k.cost[:0], k.size[:0]
	k.rows, k.free = k.rows[:0], k.free[:0]
	k.walks.Store(0)
	k.reuses, k.peakRows = 0, 0
	k.reserve(ids, n)
}

// alloc appends the per-id entries for id (which must be len(rowOf), the
// engine's next push id) and returns its row, recycling a freed slot when
// one exists.
func (k *kernel) alloc(id int, cost float64, size int32) []int32 {
	if id != len(k.rowOf) {
		panic("cluster: kernel ids must be allocated in push order")
	}
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
		k.reuses++
	} else {
		base := len(k.rows)
		slot = int32(base / k.r)
		// The caller fills the whole row. (append of a make'd slice is
		// allocation-free only when the compiler elides the make, which
		// -race builds do not.)
		k.rows = slices.Grow(k.rows, k.r)[:base+k.r]
		if rows := len(k.rows) / k.r; rows > k.peakRows {
			k.peakRows = rows
		}
	}
	k.rowOf = append(k.rowOf, slot)
	k.cost = append(k.cost, cost)
	k.size = append(k.size, size)
	return k.row(id)
}

// row returns cluster id's closure row. Valid only while id is live (or,
// transiently, until the next alloc after its kill).
func (k *kernel) row(id int) []int32 {
	base := int(k.rowOf[id]) * k.r
	return k.rows[base : base+k.r : base+k.r]
}

// kill returns id's arena slot to the free list for reuse by a later push.
func (k *kernel) kill(id int) {
	k.free = append(k.free, k.rowOf[id])
}

// addSingleton allocates id as the singleton cluster of record rec: its
// closure row is the record's leaf nodes and its cost the same
// ascending-attribute sum NewSingleton computes.
func (k *kernel) addSingleton(id int, rec table.Record) {
	sum := 0.0
	for j, v := range rec {
		sum += k.s.costs[j][v]
	}
	row := k.alloc(id, sum/float64(k.r), 1)
	for j, v := range rec {
		row[j] = int32(v)
	}
}

// addMerged allocates id with the given closure row (copied), cost and
// size — the merge result staged in mergeScratch.
func (k *kernel) addMerged(id int, row []int32, cost float64, size int) {
	copy(k.alloc(id, cost, int32(size)), row)
}

// lcaNode resolves LCA(u, v) for attribute j through the dense table when
// present, else by walk-up.
func (k *kernel) lcaNode(j, u, v int) int {
	if t := k.lcaTabs[j]; t != nil {
		return int(t[u*k.nn[j]+v])
	}
	k.walks.Add(1)
	return k.s.Hiers[j].LCA(u, v)
}

// lcaCost resolves cost(LCA(u, v)) for attribute j: one fused-table load,
// or the walk-up fallback.
func (k *kernel) lcaCost(j, u, v int) float64 {
	if t := k.fused[j]; t != nil {
		return t[u*k.nn[j]+v]
	}
	k.walks.Add(1)
	return k.s.costs[j][k.s.Hiers[j].LCA(u, v)]
}

// costAt is the per-node cost lookup (the table Space.CostAt reads).
func (k *kernel) costAt(j, node int) float64 { return k.s.costs[j][node] }

// mergeScratch computes the merge of live clusters a and b into the
// kernel's scratch row and returns it with the merged cost and size. The
// caller must consume the row before the next mergeScratch call.
func (k *kernel) mergeScratch(a, b int) (row []int32, cost float64, size int) {
	ra, rb := k.row(a), k.row(b)
	sum := 0.0
	for j := 0; j < k.r; j++ {
		node := k.lcaNode(j, int(ra[j]), int(rb[j]))
		k.scratch[j] = int32(node)
		sum += k.s.costs[j][node]
	}
	return k.scratch, sum / float64(k.r), int(k.size[a]) + int(k.size[b])
}

// stripLen is the length of one anchor strip: every attribute's cost row,
// end to end.
func (k *kernel) stripLen() int { return k.off[k.r] }

// loadStrip fills strip (stripLen long) with live cluster a's cost rows:
// strip[off[j]+v] = cost(LCA(row_a[j], v)) for every node v of attribute
// j. A tabled attribute's row is copied from its fused table; an
// over-budget attribute's row is filled by walk-up, counted in walks. Safe
// to call from pool workers on distinct strips.
func (k *kernel) loadStrip(strip []float64, a int) {
	ra := k.row(a)
	for j := 0; j < k.r; j++ {
		seg := strip[k.off[j]:k.off[j+1]:k.off[j+1]]
		if row := k.s.LCACostRow(j, int(ra[j]), seg); k.fused[j] != nil {
			copy(seg, row)
		}
	}
	if k.fillWalks > 0 {
		k.walks.Add(k.fillWalks)
	}
}

// price sets sums[q] to the LCA-cost sum of live cluster ids[q] against a
// loaded anchor strip, Σ_j strip[off[j]+row[j]] in ascending attribute
// order — bit for bit the sum a per-pair evaluation of dist(anchor, ids[q])
// or dist(ids[q], anchor) adds, since cost(LCA(u, v)) is symmetric.
// Candidates go four per iteration with independent sums, so four add
// chains are in flight; a remainder of two or three takes one two-wide
// step and an odd last one goes alone. sums must be at least len(ids)
// long. It reads only immutable-while-scanning state and is safe to call
// from pool workers.
func (k *kernel) price(strip []float64, ids []int32, sums []float64) {
	r, rows, rowOf := k.r, k.rows, k.rowOf
	off := k.off[:r]
	sums = sums[:len(ids)]
	q := 0
	for ; q+3 < len(ids); q += 4 {
		b0, b1 := int(rowOf[ids[q]])*r, int(rowOf[ids[q+1]])*r
		b2, b3 := int(rowOf[ids[q+2]])*r, int(rowOf[ids[q+3]])*r
		r0, r1 := rows[b0:][:r], rows[b1:][:r]
		r2, r3 := rows[b2:][:r], rows[b3:][:r]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for j, o := range off {
			s0 += strip[o+int(r0[j])]
			s1 += strip[o+int(r1[j])]
			s2 += strip[o+int(r2[j])]
			s3 += strip[o+int(r3[j])]
		}
		sums[q], sums[q+1], sums[q+2], sums[q+3] = s0, s1, s2, s3
	}
	if q+1 < len(ids) {
		b0, b1 := int(rowOf[ids[q]])*r, int(rowOf[ids[q+1]])*r
		r0, r1 := rows[b0:][:r], rows[b1:][:r]
		s0, s1 := 0.0, 0.0
		for j, o := range off {
			s0 += strip[o+int(r0[j])]
			s1 += strip[o+int(r1[j])]
		}
		sums[q], sums[q+1] = s0, s1
		q += 2
	}
	if q < len(ids) {
		b := int(rowOf[ids[q]]) * r
		rb := rows[b:][:r]
		s := 0.0
		for j, o := range off {
			s += strip[o+int(rb[j])]
		}
		sums[q] = s
	}
}

// The offer helpers evaluate one priced run of a pair pass (DESIGN.md §17)
// and offer the distances to neighbour lists. Each switches on the distance
// kind once and runs the chosen formula inline in its candidate loop; the
// union size of two live clusters never exceeds the table's record count,
// so D3's log|A∪B| is always a logTab load. Both orientations of a pair
// share dU = sum/r. Each helper returns the evaluations it made, the
// engine's dist_evals.

// offerBuild evaluates the initial build's pairs of anchor a with the
// consecutive ids lo, lo+1, …, lo+len(sums)−1, priced in sums: dist(a, j)
// goes to row under j, dist(j, a) to cols[j−lo] under a.
func (k *kernel) offerBuild(a, lo int, sums []float64, row *nnList, cols []nnList) int64 {
	fr, sa, ca, a32 := float64(k.r), int(k.size[a]), k.cost[a], int32(a)
	size, cost := k.size[lo:lo+len(sums)], k.cost[lo:lo+len(sums)]
	cols = cols[:len(sums)]
	switch k.kind {
	case distD1:
		for q, s := range sums {
			dU, sb, cb := s/fr, int(size[q]), cost[q]
			row.offer(d1Eval(sa, sb, sa+sb, ca, cb, dU), int32(lo+q))
			cols[q].offer(d1Eval(sb, sa, sb+sa, cb, ca, dU), a32)
		}
	case distD2:
		for q, s := range sums {
			dU, cb := s/fr, cost[q]
			row.offer(d2Eval(ca, cb, dU), int32(lo+q))
			cols[q].offer(d2Eval(cb, ca, dU), a32)
		}
	case distD3:
		logTab := k.logTab
		for q, s := range sums {
			dU, cb, den := s/fr, cost[q], logTab[sa+int(size[q])]
			row.offer(d3Eval(den, ca, cb, dU), int32(lo+q))
			cols[q].offer(d3Eval(den, cb, ca, dU), a32)
		}
	case distD4:
		for q, s := range sums {
			dU, cb := s/fr, cost[q]
			row.offer(d4Eval(ca, cb, dU), int32(lo+q))
			cols[q].offer(d4Eval(cb, ca, dU), a32)
		}
	case distNC:
		for q, s := range sums {
			dU, cb := s/fr, cost[q]
			row.offer(ncEval(cb, dU), int32(lo+q))
			cols[q].offer(ncEval(ca, dU), a32)
		}
	default:
		for q, s := range sums {
			dU, sb, cb := s/fr, int(size[q]), cost[q]
			row.offer(k.custom.Eval(sa, sb, sa+sb, ca, cb, dU), int32(lo+q))
			cols[q].offer(k.custom.Eval(sb, sa, sb+sa, cb, ca, dU), a32)
		}
	}
	return 2 * int64(len(sums))
}

// offerNewborn evaluates a newborn pass's pairs of anchor a with the ids
// priced in sums, skipping ids ≥ a (the anchor and its younger siblings):
// dist(a, y) goes to row and dist(y, a) to col, both under y.
func (k *kernel) offerNewborn(a int, ids []int32, sums []float64, row, col *nnList) int64 {
	fr, sa, ca, a32 := float64(k.r), int(k.size[a]), k.cost[a], int32(a)
	size, cost := k.size, k.cost
	sums = sums[:len(ids)]
	n := int64(0)
	switch k.kind {
	case distD1:
		for q, y := range ids {
			if y >= a32 {
				continue
			}
			dU, sb, cb := sums[q]/fr, int(size[y]), cost[y]
			row.offer(d1Eval(sa, sb, sa+sb, ca, cb, dU), y)
			col.offer(d1Eval(sb, sa, sb+sa, cb, ca, dU), y)
			n++
		}
	case distD2:
		for q, y := range ids {
			if y >= a32 {
				continue
			}
			dU, cb := sums[q]/fr, cost[y]
			row.offer(d2Eval(ca, cb, dU), y)
			col.offer(d2Eval(cb, ca, dU), y)
			n++
		}
	case distD3:
		logTab := k.logTab
		for q, y := range ids {
			if y >= a32 {
				continue
			}
			dU, cb, den := sums[q]/fr, cost[y], logTab[sa+int(size[y])]
			row.offer(d3Eval(den, ca, cb, dU), y)
			col.offer(d3Eval(den, cb, ca, dU), y)
			n++
		}
	case distD4:
		for q, y := range ids {
			if y >= a32 {
				continue
			}
			dU, cb := sums[q]/fr, cost[y]
			row.offer(d4Eval(ca, cb, dU), y)
			col.offer(d4Eval(cb, ca, dU), y)
			n++
		}
	case distNC:
		for q, y := range ids {
			if y >= a32 {
				continue
			}
			dU, cb := sums[q]/fr, cost[y]
			row.offer(ncEval(cb, dU), y)
			col.offer(ncEval(ca, dU), y)
			n++
		}
	default:
		for q, y := range ids {
			if y >= a32 {
				continue
			}
			dU, sb, cb := sums[q]/fr, int(size[y]), cost[y]
			row.offer(k.custom.Eval(sa, sb, sa+sb, ca, cb, dU), y)
			col.offer(k.custom.Eval(sb, sa, sb+sa, cb, ca, dU), y)
			n++
		}
	}
	return 2 * n
}

// offerRescan evaluates a rescan's pairs of anchor a with the ids priced in
// sums, skipping a itself, into l under each id: dist(a, y) for a row list,
// dist(y, a) when rev (a column list).
func (k *kernel) offerRescan(a int, ids []int32, sums []float64, l *nnList, rev bool) int64 {
	fr, sa, ca, a32 := float64(k.r), int(k.size[a]), k.cost[a], int32(a)
	size, cost := k.size, k.cost
	sums = sums[:len(ids)]
	n := int64(0)
	switch k.kind {
	case distD1:
		for q, y := range ids {
			if y == a32 {
				continue
			}
			dU, sA, sB, dA, dB := sums[q]/fr, sa, int(size[y]), ca, cost[y]
			if rev {
				sA, sB, dA, dB = sB, sA, dB, dA
			}
			l.offer(d1Eval(sA, sB, sA+sB, dA, dB, dU), y)
			n++
		}
	case distD2:
		for q, y := range ids {
			if y == a32 {
				continue
			}
			dU, dA, dB := sums[q]/fr, ca, cost[y]
			if rev {
				dA, dB = dB, dA
			}
			l.offer(d2Eval(dA, dB, dU), y)
			n++
		}
	case distD3:
		logTab := k.logTab
		for q, y := range ids {
			if y == a32 {
				continue
			}
			dU, dA, dB, den := sums[q]/fr, ca, cost[y], logTab[sa+int(size[y])]
			if rev {
				dA, dB = dB, dA
			}
			l.offer(d3Eval(den, dA, dB, dU), y)
			n++
		}
	case distD4:
		for q, y := range ids {
			if y == a32 {
				continue
			}
			dU, dA, dB := sums[q]/fr, ca, cost[y]
			if rev {
				dA, dB = dB, dA
			}
			l.offer(d4Eval(dA, dB, dU), y)
			n++
		}
	case distNC:
		for q, y := range ids {
			if y == a32 {
				continue
			}
			dU, dB := sums[q]/fr, cost[y]
			if rev {
				dB = ca
			}
			l.offer(ncEval(dB, dU), y)
			n++
		}
	default:
		for q, y := range ids {
			if y == a32 {
				continue
			}
			dU, sA, sB, dA, dB := sums[q]/fr, sa, int(size[y]), ca, cost[y]
			if rev {
				sA, sB, dA, dB = sB, sA, dB, dA
			}
			l.offer(k.custom.Eval(sA, sB, sA+sB, dA, dB, dU), y)
			n++
		}
	}
	return n
}

// eval is the devirtualized Distance.Eval of one pair, for the shrink and
// absorb paths: a switch over the built-in distances calling the
// distance.go formulas (so results are bit-identical to the interface
// path), with the interface dispatch kept only for user-supplied
// distances.
func (k *kernel) eval(sa, sb, su int, dA, dB, dU float64) float64 {
	switch k.kind {
	case distD1:
		return d1Eval(sa, sb, su, dA, dB, dU)
	case distD2:
		return d2Eval(dA, dB, dU)
	case distD3:
		var den float64
		if su >= 0 && su < len(k.logTab) {
			den = k.logTab[su]
		} else {
			den = math.Log(float64(su))
		}
		return d3Eval(den, dA, dB, dU)
	case distD4:
		return d4Eval(dA, dB, dU)
	case distNC:
		return ncEval(dB, dU)
	default:
		return k.custom.Eval(sa, sb, su, dA, dB, dU)
	}
}
