package anonymity

import (
	"math/bits"
	"slices"

	"kanon/internal/hierarchy"
	"kanon/internal/table"
)

// This file builds the audit's graphs from row classes instead of from
// pairwise predicate calls. A row class is a group of identical released
// rows: every record is consistent with all rows of a class or with none,
// and every released row overlaps all rows of a class or none. For each
// attribute a and hierarchy node w a bitmask over the D classes records
// which classes qualify at w; a record's (or row's) neighbour classes are
// the AND of its A attribute masks, ⌈D/64⌉ words each, and its neighbour
// rows are the members of those classes in ascending position order — the
// order the pairwise loops produced. Building costs O(n·A·⌈D/64⌉ + edges)
// against the O(n²·A) predicate calls of the pairwise loops, and the
// masks take Σ_a NumNodes_a·⌈D/64⌉ words.
//
// The masks are read off the hierarchies' parent links alone, never off
// the cluster kernel's cost tables, so the audit does not share the code
// it checks.

// rowClasses groups the identical rows of a release.
type rowClasses struct {
	hiers []*hierarchy.Hierarchy
	// rows[c] is the released row of class c.
	rows []table.GenRecord
	// members[c] lists the positions of class c's rows in ascending order.
	// The lists are capped at their length and must not be modified.
	members [][]int
	// words is the length of a class mask: ⌈len(rows)/64⌉.
	words int
	// seen is expand's position bitmap, one bit per released row; it is
	// all zero between calls.
	seen []uint64
}

// newRowClasses groups the rows of g. Classes are numbered in the
// lexicographic order of their rows.
func newRowClasses(hiers []*hierarchy.Hierarchy, g *table.GenTable) *rowClasses {
	order := make([]int, g.Len())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		return slices.Compare(g.Records[i], g.Records[j])
	})
	x := &rowClasses{hiers: hiers, seen: make([]uint64, (g.Len()+63)/64)}
	for lo := 0; lo < len(order); {
		row := g.Records[order[lo]]
		hi := lo + 1
		for hi < len(order) && slices.Equal(g.Records[order[hi]], row) {
			hi++
		}
		x.rows = append(x.rows, row)
		x.members = append(x.members, order[lo:hi:hi])
		lo = hi
	}
	x.words = (len(x.rows) + 63) / 64
	return x
}

// masks returns, per attribute, the class masks of every hierarchy node,
// words per node: bit c of node w is set iff the node of class c on that
// attribute is an ancestor of w (inclusive), i.e. covers every value under
// w. With overlap, the bit is also set when the class's node is a
// descendant of w: the two subsets intersect, since permissible subsets
// are laminar.
func (x *rowClasses) masks(overlap bool) [][]uint64 {
	out := make([][]uint64, len(x.hiers))
	for a, h := range x.hiers {
		// Parents precede their children in the breadth-first order.
		order := []int{h.Root()}
		for i := 0; i < len(order); i++ {
			order = append(order, h.Children(order[i])...)
		}
		own := make([]uint64, h.NumNodes()*x.words)
		for c, row := range x.rows {
			own[row[a]*x.words+c/64] |= 1 << (c % 64)
		}
		down := own
		if overlap {
			down = slices.Clone(own)
		}
		for _, w := range order[1:] {
			or(x.node(down, w), x.node(down, h.Parent(w)))
		}
		if overlap {
			up := own
			for i := len(order) - 1; i > 0; i-- {
				w := order[i]
				or(x.node(up, h.Parent(w)), x.node(up, w))
			}
			or(down, up)
		}
		out[a] = down
	}
	return out
}

// node returns node w's mask within an attribute's masks.
func (x *rowClasses) node(m []uint64, w int) []uint64 {
	return m[w*x.words : (w+1)*x.words]
}

// or sets dst to dst | src.
func or(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// intersect sets dst to the classes set in every attribute's mask at the
// node nodeOf(a). Schemas have at least one attribute.
func (x *rowClasses) intersect(dst []uint64, masks [][]uint64, nodeOf func(a int) int) {
	copy(dst, x.node(masks[0], nodeOf(0)))
	for a := 1; a < len(masks); a++ {
		src := x.node(masks[a], nodeOf(a))
		for i := range dst {
			dst[i] &= src[i]
		}
	}
}

// expand appends the positions of the classes set in m to dst, in
// ascending order: the classes' rows are marked in the position bitmap
// x.seen and read back in order, which clears the bitmap again.
func (x *rowClasses) expand(dst []int, m []uint64) []int {
	lo, hi := len(x.seen), -1
	for i, word := range m {
		for ; word != 0; word &= word - 1 {
			for _, j := range x.members[i*64+bits.TrailingZeros64(word)] {
				w := j / 64
				x.seen[w] |= 1 << (j % 64)
				lo, hi = min(lo, w), max(hi, w)
			}
		}
	}
	for w := lo; w <= hi; w++ {
		word := x.seen[w]
		x.seen[w] = 0
		for ; word != 0; word &= word - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(word))
		}
	}
	return dst
}

// rowCount returns the number of rows in the classes set in m.
func (x *rowClasses) rowCount(m []uint64) int {
	n := 0
	for i, word := range m {
		for ; word != 0; word &= word - 1 {
			n += len(x.members[i*64+bits.TrailingZeros64(word)])
		}
	}
	return n
}

// consistentRows returns the adjacency lists of V_{D,g(D)}: entry i holds,
// in ascending order, the rows of g consistent with record i of tbl. A
// first pass counts the edges, so the lists share one backing array of
// the exact size; each list is capped at its length.
func consistentRows(hiers []*hierarchy.Hierarchy, tbl *table.Table, g *table.GenTable) [][]int {
	x := newRowClasses(hiers, g)
	masks := x.masks(false)
	m := make([]uint64, x.words)
	off := make([]int, tbl.Len()+1)
	for i, r := range tbl.Records {
		x.intersect(m, masks, func(a int) int { return hiers[a].LeafOf(r[a]) })
		off[i+1] = off[i] + x.rowCount(m)
	}
	flat := make([]int, 0, off[tbl.Len()])
	adj := make([][]int, tbl.Len())
	for i, r := range tbl.Records {
		x.intersect(m, masks, func(a int) int { return hiers[a].LeafOf(r[a]) })
		flat = x.expand(flat, m)
		adj[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return adj
}

// consistencyDegrees returns the degrees of V_{D,g(D)} without building
// its edges: left[i] counts the rows of g consistent with record i of tbl,
// right[j] the records consistent with row j.
func consistencyDegrees(hiers []*hierarchy.Hierarchy, tbl *table.Table, g *table.GenTable) (left, right []int) {
	x := newRowClasses(hiers, g)
	masks := x.masks(false)
	m := make([]uint64, x.words)
	left = make([]int, tbl.Len())
	perClass := make([]int, len(x.rows))
	for i, r := range tbl.Records {
		x.intersect(m, masks, func(a int) int { return hiers[a].LeafOf(r[a]) })
		left[i] = x.rowCount(m)
		for wi, word := range m {
			for ; word != 0; word &= word - 1 {
				perClass[wi*64+bits.TrailingZeros64(word)]++
			}
		}
	}
	right = make([]int, g.Len())
	for c, rows := range x.members {
		for _, j := range rows {
			right[j] = perClass[c]
		}
	}
	return left, right
}

// OverlappingRows returns the adjacency lists of the overlap graph of a
// release: entry i holds, in ascending order, the rows j of g that overlap
// row i in every attribute — per attribute one node is an ancestor of the
// other, so some original record is consistent with both rows. hiers must
// hold one hierarchy per attribute of g. Rows of one class share one list;
// the lists are capped at their length and must not be modified.
func OverlappingRows(hiers []*hierarchy.Hierarchy, g *table.GenTable) [][]int {
	x := newRowClasses(hiers, g)
	masks := x.masks(true)
	m := make([]uint64, x.words)
	adj := make([][]int, g.Len())
	for c, row := range x.rows {
		x.intersect(m, masks, func(a int) int { return row[a] })
		list := x.expand(nil, m)
		list = list[:len(list):len(list)]
		for _, i := range x.members[c] {
			adj[i] = list
		}
	}
	return adj
}
