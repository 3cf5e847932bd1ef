package anonymity

import (
	"math/bits"

	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/hierarchy"
	"kanon/internal/table"
)

// This file answers the matches of Definition 4.6 — the edges of a
// bipartite graph that extend to a perfect matching — on the row-class
// quotient of the graph (graph.go), with no per-record edge lists. Fix a
// perfect matching M and orient the graph as the SCC method does:
// unmatched edges record → row, matched edges row → record. An unmatched
// edge is a match iff its two ends share a strongly connected component.
//
//   - The rows of one class C are twins. If |C| ≥ 2, C and the records M
//     matches into it are strongly connected: for rows v, v′ of C and
//     u = M⁻¹(v), u′ = M⁻¹(v′) there is the cycle u → v′ → u′ → v → u.
//   - If |C| = 1, the row's only out-arc goes to its matched record, and
//     that record's only in-arc comes from the row. Contracting the pair
//     keeps every other node's reachability to and from both.
//
// So the components of the expanded graph are those of the quotient Q over
// the D classes, with an arc C → D iff some record matched into C is
// consistent with D's row. A record matched into C has as matches exactly
// the rows of the classes in its neighbour mask that share C's component
// in Q. Q is one D-bit successor mask per class, D·⌈D/64⌉ words; a record's
// own mask is computed once to build Q and once to count, never stored.

// Candidates sizes the two candidate sets of Section IV-A for every
// original record of a release.
type Candidates struct {
	// Consistent[i] counts the rows consistent with record i: the first
	// adversary's candidates.
	Consistent []int
	// Matches[i] counts the matches of record i (Definition 4.6): the
	// second adversary's candidates. Every count is zero when V_{D,g(D)}
	// has no perfect matching.
	Matches []int
	// ExposedConsistent[i] and ExposedMatches[i] report whether record i's
	// candidate rows are not empty and all carry one sensitive value. Both
	// are nil when no sensitive values are given.
	ExposedConsistent, ExposedMatches []bool
}

// RecordCandidates returns both adversaries' candidate counts for every
// record of tbl against g. sensitive may be nil; otherwise sensitive[j] is
// the sensitive value of row j of g, and the exposures are filled in.
func RecordCandidates(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int) Candidates {
	c, _ := consistencyCounts(s.Hiers, tbl, g, sensitive)
	return c
}

// consistencyCounts is RecordCandidates also returning, per row of g, the
// number of records consistent with it. The matching is the identity when
// every record is consistent with its own row, which the first pass checks
// from the masks it computes anyway; otherwise it is a Hopcroft–Karp
// matching of V_{D,g(D)}, and Q is rebuilt from it.
func consistencyCounts(hiers []*hierarchy.Hierarchy, tbl *table.Table, g *table.GenTable, sensitive []int) (c Candidates, right []int) {
	n := tbl.Len()
	x := newRowClasses(hiers, g, nil)
	masks := x.masks(false)
	vals := x.values(sensitive)
	c.Matches = make([]int, n)
	if vals != nil {
		c.ExposedConsistent = make([]bool, n)
		c.ExposedMatches = make([]bool, n)
	}

	// Pass 1: degrees, the first adversary's exposures, and Q under the
	// identity matching while it holds.
	adj := make([]uint64, len(x.rows)*x.words)
	identity := n == g.Len()
	c.Consistent, right = x.degrees(tbl, masks, func(i int, m []uint64) {
		if vals != nil {
			_, c.ExposedConsistent[i] = x.tally(m, nil, 0, vals)
		}
		if identity {
			if own := x.class[i]; m[own/64]&(1<<(own%64)) != 0 {
				or(x.node(adj, int(own)), m)
			} else {
				identity = false
			}
		}
	})

	matched := x.class
	if !identity {
		if n != g.Len() {
			return c, right
		}
		if matched = x.matchElsewhere(adj, n, func(m []uint64, i int) { x.neighbours(m, masks, tbl.Records[i]) }); matched == nil {
			return c, right
		}
	}
	comp := components(adj, x.words, len(x.rows))

	// Pass 2: each record's matches are its neighbour classes in the
	// component of the class it is matched into.
	m := make([]uint64, x.words)
	for i, r := range tbl.Records {
		x.neighbours(m, masks, r)
		count, exposed := x.tally(m, comp, comp[matched[i]], vals)
		c.Matches[i] = count
		if vals != nil {
			c.ExposedMatches[i] = exposed
		}
	}
	return c, right
}

// matchElsewhere serves a graph on which the identity is not a perfect
// matching; record i, of n, has the neighbour classes load(m, i) sets. It
// finds a perfect matching by Hopcroft–Karp over the expanded rows,
// refills adj with Q over it, and returns the class each record is matched
// into, or nil when the graph has none.
func (x *rowClasses) matchElsewhere(adj []uint64, n int, load func(m []uint64, i int)) []int32 {
	mt := bipartite.HopcroftKarp(bipartite.FromAdjacency(len(x.class), x.consistentRows(n, load)))
	if !mt.IsPerfect() {
		return nil
	}
	matched := make([]int32, n)
	clear(adj)
	m := make([]uint64, x.words)
	for i := range n {
		matched[i] = x.class[mt.MatchL[i]]
		load(m, i)
		or(x.node(adj, int(matched[i])), m)
	}
	return matched
}

// InformedMatches returns, per record of tbl, its matches in V_{D,g(D)}
// after every edge from a known record to a row of another sensitive value
// is deleted: the candidates of the stronger adversary of Section IV-A,
// who knows the private values of the records with known[i] set.
// sensitive[j] is the value of record j and of row j. The classes are
// refined by the rows' sensitive values, as far as known records hold
// them, so the rows of one class stay twins for every record, known or
// not: a known record keeps or drops whole classes, its neighbour mask
// ANDed with the mask of its value's classes, and the matches come from Q
// as above. A known record keeps its own row, so the identity stays a
// perfect matching of a positional release. Every count is zero when the
// pruned graph has no perfect matching, and when tbl and g differ in
// length.
func InformedMatches(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int, known []bool) []int {
	n := tbl.Len()
	matches := make([]int, n)
	if n != g.Len() {
		return matches
	}
	// code numbers the values that known records hold from 1. The rows of
	// every other value share code 0: each known record drops them all.
	code := make(map[int]int)
	for i, k := range known {
		if _, ok := code[sensitive[i]]; k && !ok {
			code[sensitive[i]] = len(code) + 1
		}
	}
	codes := make([]int, n)
	for j, v := range sensitive {
		codes[j] = code[v]
	}
	x := newRowClasses(s.Hiers, g, codes)
	masks := x.masks(false)
	// Mask c of byCode holds the classes whose rows carry code c.
	byCode := make([]uint64, (len(code)+1)*x.words)
	for cl, rows := range x.members {
		byCode[codes[rows[0]]*x.words+cl/64] |= 1 << (cl % 64)
	}
	load := func(m []uint64, i int) {
		x.neighbours(m, masks, tbl.Records[i])
		if known[i] {
			for w, same := range x.node(byCode, codes[i]) {
				m[w] &= same
			}
		}
	}

	m := make([]uint64, x.words)
	adj := make([]uint64, len(x.rows)*x.words)
	matched := x.class
	for i := range n {
		load(m, i)
		own := x.class[i]
		if m[own/64]&(1<<(own%64)) == 0 {
			matched = x.matchElsewhere(adj, n, load)
			break
		}
		or(x.node(adj, int(own)), m)
	}
	if matched == nil {
		return matches
	}
	comp := components(adj, x.words, len(x.rows))
	for i := range n {
		load(m, i)
		matches[i], _ = x.tally(m, comp, comp[matched[i]], nil)
	}
	return matches
}

// RefinedCandidates runs the combinatorial refinement attack of
// internal/attack on the overlap graph of g, whose rows i and j are
// adjacent iff per attribute one node is an ancestor of the other: it
// returns, per row, the number of overlapping rows whose edge extends to a
// perfect matching, and, when sensitive is not nil, whether those rows all
// carry one sensitive value. Overlap is symmetric and every row overlaps
// itself, so for any edge (i, j) the transposition of i and j, with every
// other row matched to itself, is a perfect matching: every overlap edge
// extends to one, and the counts are the rows of the classes set in each
// class's overlap mask. In the terms of Q, its arcs come in pairs, and a
// class shares its component with every class it overlaps.
func RefinedCandidates(hiers []*hierarchy.Hierarchy, g *table.GenTable, sensitive []int) (counts []int, exposed []bool) {
	x := newRowClasses(hiers, g, nil)
	masks := x.masks(true)
	vals := x.values(sensitive)
	counts = make([]int, g.Len())
	if vals != nil {
		exposed = make([]bool, g.Len())
	}
	m := make([]uint64, x.words)
	for cl, row := range x.rows {
		x.intersect(m, masks, func(a int) int { return row[a] })
		count, exp := x.tally(m, nil, 0, vals)
		for _, j := range x.members[cl] {
			counts[j] = count
			if exposed != nil {
				exposed[j] = exp
			}
		}
	}
	return counts, exposed
}

// classValues records, per class, the sensitive value its rows share, or
// that they hold more than one.
type classValues struct {
	value []int
	mixed []bool
}

// values returns the classes' sensitive values, or nil for nil sensitive.
func (x *rowClasses) values(sensitive []int) *classValues {
	if sensitive == nil {
		return nil
	}
	v := &classValues{value: make([]int, len(x.rows)), mixed: make([]bool, len(x.rows))}
	for cl, rows := range x.members {
		v.value[cl] = sensitive[rows[0]]
		for _, j := range rows[1:] {
			if sensitive[j] != v.value[cl] {
				v.mixed[cl] = true
				break
			}
		}
	}
	return v
}

// tally returns the number of rows in the classes set in m — only those
// in component own of comp when comp is not nil — and whether those rows
// are not empty and all carry one sensitive value (false for nil vals).
func (x *rowClasses) tally(m []uint64, comp []int32, own int32, vals *classValues) (rows int, exposed bool) {
	exposed = vals != nil
	value := 0
	for wi, word := range m {
		for ; word != 0; word &= word - 1 {
			cl := wi*64 + bits.TrailingZeros64(word)
			if comp != nil && comp[cl] != own {
				continue
			}
			if exposed {
				if vals.mixed[cl] || (rows > 0 && vals.value[cl] != value) {
					exposed = false
				}
				value = vals.value[cl]
			}
			rows += len(x.members[cl])
		}
	}
	return rows, exposed && rows > 0
}

// components returns the strongly connected component of each of the d
// nodes of the digraph whose node c has an arc to every node set in the
// mask adj[c·words:(c+1)·words]. It is Tarjan's algorithm without
// recursion: a frame's cursor is the word of its mask it reads and that
// word's bits not yet followed. Components are numbered from 0 in the
// order they complete.
func components(adj []uint64, words, d int) []int32 {
	type frame struct {
		node, word int
		rest       uint64
	}
	// index[c] is one more than c's visit number, 0 while unvisited; a
	// visited node with no component yet is on the stack.
	index := make([]int32, d)
	low := make([]int32, d)
	comp := make([]int32, d)
	for c := range comp {
		comp[c] = -1
	}
	var stack []int32
	var call []frame
	visits, comps := int32(0), int32(0)
	visit := func(c int) {
		visits++
		index[c], low[c] = visits, visits
		stack = append(stack, int32(c))
		call = append(call, frame{node: c, rest: adj[c*words]})
	}
	for start := 0; start < d; start++ {
		if index[start] != 0 {
			continue
		}
		visit(start)
		for len(call) > 0 {
			f := &call[len(call)-1]
			c := f.node
			for f.rest == 0 && f.word+1 < words {
				f.word++
				f.rest = adj[c*words+f.word]
			}
			if f.rest != 0 {
				next := f.word*64 + bits.TrailingZeros64(f.rest)
				f.rest &= f.rest - 1
				if index[next] == 0 {
					visit(next)
				} else if comp[next] < 0 && index[next] < low[c] {
					low[c] = index[next]
				}
				continue
			}
			if low[c] == index[c] {
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[top] = comps
					if int(top) == c {
						break
					}
				}
				comps++
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].node
				low[p] = min(low[p], low[c])
			}
		}
	}
	return comp
}

// ClassIndex answers, for one release, which rows an original record is
// consistent with: it loads a record's neighbour classes as one mask and
// then tests rows against it or lists them. The intersection attack keeps
// one per release and loads each record when it reaches it, so no release
// holds an edge list or a mask per record.
type ClassIndex struct {
	x     *rowClasses
	masks [][]uint64
	// m is the loaded record's neighbour classes.
	m []uint64
}

// NewClassIndex indexes the rows of g, with one hierarchy per attribute.
func NewClassIndex(hiers []*hierarchy.Hierarchy, g *table.GenTable) *ClassIndex {
	x := newRowClasses(hiers, g, nil)
	return &ClassIndex{x: x, masks: x.masks(false), m: make([]uint64, x.words)}
}

// Load makes r the record that Has and AppendRows answer for.
func (ix *ClassIndex) Load(r table.Record) {
	ix.x.neighbours(ix.m, ix.masks, r)
}

// Has reports whether row j is consistent with the loaded record.
func (ix *ClassIndex) Has(j int) bool {
	cl := ix.x.class[j]
	return ix.m[cl/64]&(1<<(cl%64)) != 0
}

// AppendRows appends the rows consistent with the loaded record to dst,
// class by class.
func (ix *ClassIndex) AppendRows(dst []int) []int {
	for wi, word := range ix.m {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, ix.x.members[wi*64+bits.TrailingZeros64(word)]...)
		}
	}
	return dst
}
