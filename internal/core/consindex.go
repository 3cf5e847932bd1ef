package core

import (
	"math/bits"

	"kanon/internal/cluster"
	"kanon/internal/hierarchy"
	"kanon/internal/table"
)

// consIndex answers which of the n generalized rows of g are consistent
// with a record (Definition 3.3) while Algorithms 5 and 6 widen those rows
// in place. For each attribute a and value v it keeps a bitmask over the
// rows whose node on a covers v. A record's consistent rows are then the
// AND of its A leaf masks, and widening a row only sets bits: those of the
// values under its new nodes. The masks take Σ_a NumValues_a·⌈n/64⌉ words.
//
// The audit keeps masks of its own over the row classes of a fixed release
// (internal/anonymity/graph.go). This index changes under widening, and it
// shares no code with the audit that checks its output. recordMasks is the
// same idea from the other side: static masks over the original records.
type consIndex struct {
	s        *cluster.Space
	g        *table.GenTable
	n, words int
	// masks[a][v*words:(v+1)*words] holds the rows whose node on a covers v.
	masks [][]uint64
	// leaves[a] lists the values under each node of attribute a.
	leaves []leafRanges
	// and and old are scratch for rowsOf and widen.
	and []uint64
	old table.GenRecord
}

// leafRanges lists a hierarchy's values in depth-first order, so the values
// under node x are the contiguous run vals[span[x][0]:span[x][1]].
type leafRanges struct {
	vals []int
	span [][2]int32
}

func newLeafRanges(h *hierarchy.Hierarchy) leafRanges {
	r := leafRanges{vals: make([]int, 0, h.NumValues()), span: make([][2]int32, h.NumNodes())}
	var walk func(x int)
	walk = func(x int) {
		start := len(r.vals)
		if h.IsLeaf(x) {
			r.vals = append(r.vals, h.ValueOf(x))
		}
		for _, c := range h.Children(x) {
			walk(c)
		}
		r.span[x] = [2]int32{int32(start), int32(len(r.vals))}
	}
	walk(h.Root())
	return r
}

// under returns the values covered by node x.
func (r *leafRanges) under(x int) []int { return r.vals[r.span[x][0]:r.span[x][1]] }

// newConsIndex indexes the rows of g, which it widens in place.
func newConsIndex(s *cluster.Space, g *table.GenTable) *consIndex {
	n, nAttrs := g.Len(), s.NumAttrs()
	x := &consIndex{
		s:      s,
		g:      g,
		n:      n,
		words:  (n + 63) / 64,
		masks:  make([][]uint64, nAttrs),
		leaves: make([]leafRanges, nAttrs),
		old:    make(table.GenRecord, nAttrs),
	}
	x.and = make([]uint64, x.words)
	for a, h := range s.Hiers {
		x.masks[a] = make([]uint64, h.NumValues()*x.words)
		x.leaves[a] = newLeafRanges(h)
	}
	for j, row := range g.Records {
		for a, node := range row {
			x.set(j, a, node)
		}
	}
	return x
}

// set marks row j consistent, on attribute a, with every value under node.
func (x *consIndex) set(j, a, node int) {
	m, w, bit := x.masks[a], j>>6, uint64(1)<<(j&63)
	for _, v := range x.leaves[a].under(node) {
		m[v*x.words+w] |= bit
	}
}

// rowsOf returns the mask of the rows consistent with r. The mask is
// scratch, valid until the next rowsOf.
func (x *consIndex) rowsOf(r table.Record) []uint64 {
	return andMasks(x.and, x.n, x.masks, r)
}

// andMasks sets dst, an n-bit mask, to the AND over the attributes a of
// the mask of key[a] in masks[a], each ⌈n/64⌉ words long, and returns it.
func andMasks(dst []uint64, n int, masks [][]uint64, key []int) []uint64 {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if tail := n & 63; tail != 0 {
		dst[len(dst)-1] = 1<<tail - 1
	}
	words := len(dst)
	for a, x := range key {
		m := masks[a][x*words : (x+1)*words]
		for i := range dst {
			dst[i] &= m[i]
		}
	}
	return dst
}

// widen sets R̄_j ← R̄_j + rec in the indexed table, like widen, and
// records the values R̄_j now covers.
func (x *consIndex) widen(j int, rec table.Record) {
	row := x.g.Records[j]
	copy(x.old, row)
	widen(x.s, row, rec)
	for a, node := range row {
		if node != x.old[a] {
			x.set(j, a, node)
		}
	}
}

// recordMasks answers which original records a generalized row is
// consistent with (Definition 3.3), for Algorithm 6: the originals never
// change, so neither do these masks. For each attribute a and node x it
// keeps a bitmask over the n records whose value on a lies under x. The
// records consistent with a row are then the AND of its A node masks. The
// masks take Σ_a NumNodes_a·⌈n/64⌉ words.
type recordMasks struct {
	n int
	// masks[a][x*words:(x+1)*words] holds the records under node x of a.
	masks [][]uint64
	and   []uint64 // scratch for recordsOf
}

func newRecordMasks(s *cluster.Space, tbl *table.Table) *recordMasks {
	n, words := tbl.Len(), (tbl.Len()+63)/64
	x := &recordMasks{n: n, masks: make([][]uint64, s.NumAttrs()), and: make([]uint64, words)}
	for a, h := range s.Hiers {
		x.masks[a] = make([]uint64, h.NumNodes()*words)
	}
	for u, rec := range tbl.Records {
		w, bit := u>>6, uint64(1)<<(u&63)
		for a, h := range s.Hiers {
			for node := h.LeafOf(rec[a]); node >= 0; node = h.Parent(node) {
				x.masks[a][node*words+w] |= bit
			}
		}
	}
	return x
}

// recordsOf returns the mask of the records consistent with row. The mask
// is scratch, valid until the next recordsOf.
func (x *recordMasks) recordsOf(row table.GenRecord) []uint64 {
	return andMasks(x.and, x.n, x.masks, row)
}

// count returns the number of rows in mask.
func count(mask []uint64) int {
	c := 0
	for _, w := range mask {
		c += bits.OnesCount64(w)
	}
	return c
}

// appendSet appends the rows in mask to dst in ascending order.
func appendSet(dst []int, mask []uint64) []int {
	for i, w := range mask {
		for w != 0 {
			dst = append(dst, i<<6|bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// appendClear appends the rows 0 ≤ j < n missing from mask to dst in
// ascending order.
func appendClear(dst []int, mask []uint64, n int) []int {
	for i, w := range mask {
		w = ^w
		if rest := n - i<<6; rest < 64 {
			w &= 1<<rest - 1
		}
		for w != 0 {
			dst = append(dst, i<<6|bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
