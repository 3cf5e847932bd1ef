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
	// class[j] is the class of released row j.
	class []int32
	// words is the length of a class mask: ⌈len(rows)/64⌉.
	words int
	// seen is expand's position bitmap, one bit per released row; it is
	// all zero between calls.
	seen []uint64
}

// newRowClasses groups the rows of g. Classes are numbered in the
// lexicographic order of their rows. The rows are put in that order by a
// least-significant-attribute radix sort: one stable counting sort per
// attribute over its hierarchy's node ids, last attribute first, so ties
// keep position order and each class lists its rows in ascending order.
// When extra is not nil, extra[j] ≥ 0 is one more key of row j, least
// significant and sorted first: classes then group the rows equal on every
// attribute and on extra.
func newRowClasses(hiers []*hierarchy.Hierarchy, g *table.GenTable, extra []int) *rowClasses {
	n := g.Len()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// key holds the rows' node ids attribute-major, then extra, so each
	// pass reads one contiguous run; the ids of column a are below bound[a].
	cols := len(hiers)
	if extra != nil {
		cols++
	}
	key := make([]int32, cols*n)
	bound := make([]int, cols)
	for a, h := range hiers {
		bound[a] = h.NumNodes()
	}
	for j, row := range g.Records {
		for a := range hiers {
			key[a*n+j] = int32(row[a])
		}
	}
	for j, v := range extra {
		key[len(hiers)*n+j] = int32(v)
		bound[len(hiers)] = max(bound[len(hiers)], v+1)
	}
	next := make([]int, n)
	var count []int
	for a := cols - 1; a >= 0; a-- {
		col := key[a*n : (a+1)*n]
		count = append(count[:0], make([]int, bound[a]+1)...)
		for _, w := range col {
			count[w+1]++
		}
		for w := 1; w < len(count); w++ {
			count[w] += count[w-1]
		}
		for _, j := range order {
			w := col[j]
			next[count[w]] = j
			count[w]++
		}
		order, next = next, order
	}
	x := &rowClasses{hiers: hiers, class: make([]int32, n), seen: make([]uint64, (n+63)/64)}
	for lo := 0; lo < len(order); {
		row := g.Records[order[lo]]
		hi := lo + 1
		for hi < len(order) && sameKey(key, n, order[lo], order[hi]) {
			hi++
		}
		for _, j := range order[lo:hi] {
			x.class[j] = int32(len(x.rows))
		}
		x.rows = append(x.rows, row)
		x.members = append(x.members, order[lo:hi:hi])
		lo = hi
	}
	x.words = (len(x.rows) + 63) / 64
	return x
}

// sameKey reports whether rows i and j have the same node ids in the
// attribute-major keys of n rows.
func sameKey(key []int32, n, i, j int) bool {
	for a := i; a < len(key); a += n {
		if key[a] != key[a-i+j] {
			return false
		}
	}
	return true
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

// neighbours sets dst to the classes consistent with record r: the AND of
// its leaf masks.
func (x *rowClasses) neighbours(dst []uint64, masks [][]uint64, r table.Record) {
	x.intersect(dst, masks, func(a int) int { return x.hiers[a].LeafOf(r[a]) })
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

// consistentRows returns the adjacency lists of the graph whose record i,
// of n, has the neighbour classes load(m, i) sets: entry i holds that
// record's rows in ascending order. A first pass counts the edges, so the
// lists share one backing array of the exact size; each list is capped at
// its length.
func (x *rowClasses) consistentRows(n int, load func(m []uint64, i int)) [][]int {
	m := make([]uint64, x.words)
	off := make([]int, n+1)
	for i := range n {
		load(m, i)
		rows, _ := x.tally(m, nil, 0, nil)
		off[i+1] = off[i] + rows
	}
	flat := make([]int, 0, off[n])
	adj := make([][]int, n)
	for i := range n {
		load(m, i)
		flat = x.expand(flat, m)
		adj[i] = flat[off[i]:off[i+1]:off[i+1]]
	}
	return adj
}

// consistencyDegrees returns the degrees of V_{D,g(D)} without building
// its edges: left[i] counts the rows of g consistent with record i of tbl,
// right[j] the records consistent with row j.
func consistencyDegrees(hiers []*hierarchy.Hierarchy, tbl *table.Table, g *table.GenTable) (left, right []int) {
	x := newRowClasses(hiers, g, nil)
	return x.degrees(tbl, x.masks(false), nil)
}

// degrees computes consistencyDegrees in one pass over the records of tbl.
// When each is not nil, it is called with every record's neighbour
// classes, in a buffer the next record reuses.
func (x *rowClasses) degrees(tbl *table.Table, masks [][]uint64, each func(i int, m []uint64)) (left, right []int) {
	m := make([]uint64, x.words)
	left = make([]int, tbl.Len())
	perClass := make([]int, len(x.rows))
	for i, r := range tbl.Records {
		x.neighbours(m, masks, r)
		left[i], _ = x.tally(m, nil, 0, nil)
		for wi, word := range m {
			for ; word != 0; word &= word - 1 {
				perClass[wi*64+bits.TrailingZeros64(word)]++
			}
		}
		if each != nil {
			each(i, m)
		}
	}
	right = make([]int, len(x.class))
	for j, cl := range x.class {
		right[j] = perClass[cl]
	}
	return left, right
}
