// Package anonymity implements definition-level verifiers for the five
// k-type anonymity notions of "k-Anonymization Revisited" — k-anonymity
// (Definition 4.1), (1,k)-, (k,1)- and (k,k)-anonymity (Definition 4.4),
// and global (1,k)-anonymity (Definition 4.6) — plus distinct and entropy
// ℓ-diversity (Machanavajjhala et al.), which Section II marks as a natural
// extension of the framework.
//
// Every algorithm in internal/core certifies its output against these
// verifiers in tests; the CLI exposes them via `kanon verify`.
package anonymity

import (
	"fmt"
	"math/bits"
	"slices"

	"kanon/internal/cluster"
	"kanon/internal/table"
)

// IsGeneralizationOf reports whether g is a valid generalization of tbl in
// the positional sense of Definition 3.2: R̄_i generalizes R_i for every i.
func IsGeneralizationOf(s *cluster.Space, tbl *table.Table, g *table.GenTable) bool {
	if tbl.Len() != g.Len() {
		return false
	}
	for i, r := range tbl.Records {
		if !s.Consistent(r, g.Records[i]) {
			return false
		}
	}
	return true
}

// IsKAnonymous reports whether g satisfies k-anonymity (Definition 4.1):
// every generalized record is identical to at least k−1 other generalized
// records.
func IsKAnonymous(g *table.GenTable, k int) bool {
	if g.Len() == 0 {
		return true
	}
	for _, size := range g.GroupSizes() {
		if size < k {
			return false
		}
	}
	return true
}

// ConsistencyDegrees returns the degrees of V_{D,g(D)} without building
// its edges: left[i] counts the rows of g consistent with record i of tbl —
// the first adversary's candidates — and right[j] the records consistent
// with row j.
func ConsistencyDegrees(s *cluster.Space, tbl *table.Table, g *table.GenTable) (left, right []int) {
	return consistencyDegrees(s.Hiers, tbl, g)
}

// allAtLeast reports whether every count is at least k.
func allAtLeast(counts []int, k int) bool {
	for _, c := range counts {
		if c < k {
			return false
		}
	}
	return true
}

// IsKK reports whether g is a (k,k)-anonymization of tbl: both (1,k) and
// (k,1).
func IsKK(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	left, right := consistencyDegrees(s.Hiers, tbl, g)
	return allAtLeast(left, k) && allAtLeast(right, k)
}

// MatchCounts returns, for every original record, the number of its matches
// in g: consistent generalized records whose edge extends to a perfect
// matching of V_{D,g(D)}. If the graph has no perfect matching every count
// is zero. The counts come from the row-class quotient (matches.go).
func MatchCounts(s *cluster.Space, tbl *table.Table, g *table.GenTable) []int {
	return RecordCandidates(s, tbl, g, nil).Matches
}

// IsGlobal1K reports whether g is a global (1,k)-anonymization of tbl
// (Definition 4.6): every original record has at least k matches.
func IsGlobal1K(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) bool {
	return allAtLeast(MatchCounts(s, tbl, g), k)
}

// IsDistinctLDiverse reports whether every equivalence class of g contains
// at least l distinct sensitive values. sensitive[i] is the sensitive
// attribute value of record i.
func IsDistinctLDiverse(g *table.GenTable, sensitive []int, l int) (bool, error) {
	if len(sensitive) != g.Len() {
		return false, fmt.Errorf("anonymity: %d sensitive values for %d records", len(sensitive), g.Len())
	}
	for _, grp := range g.Classes() {
		distinct := make(map[int]bool)
		for _, i := range grp {
			distinct[sensitive[i]] = true
		}
		if len(distinct) < l {
			return false, nil
		}
	}
	return true, nil
}

// CandidateDiversity returns, for every original record of tbl, the
// number of distinct sensitive values among the rows of g consistent with
// it — the first adversary's residual uncertainty about the record's
// sensitive attribute. sensitive[j] is the value id (non-negative) of row
// j. Each row class of g (graph.go) lists its distinct values once, and a
// record's count is the size of the union of its neighbour classes' lists,
// taken against a stamp per value id.
func CandidateDiversity(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int) ([]int, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("anonymity: generalized table has %d records, original has %d", g.Len(), n)
	}
	if len(sensitive) != n {
		return nil, fmt.Errorf("anonymity: %d sensitive values for %d records", len(sensitive), n)
	}
	values := 0
	for j, v := range sensitive {
		if v < 0 {
			return nil, fmt.Errorf("anonymity: record %d has negative sensitive value id %d", j, v)
		}
		values = max(values, v+1)
	}
	x := newRowClasses(s.Hiers, g, nil)
	masks := x.masks(false)
	// stamp[v] is one more than the last class, then the last record, that
	// counted value v.
	stamp := make([]int, values)
	// lists[c] holds the distinct values of class c's rows.
	lists := make([][]int, len(x.rows))
	for cl, rows := range x.members {
		for _, j := range rows {
			if v := sensitive[j]; stamp[v] != cl+1 {
				stamp[v] = cl + 1
				lists[cl] = append(lists[cl], v)
			}
		}
	}
	clear(stamp)
	out := make([]int, n)
	m := make([]uint64, x.words)
	for i, r := range tbl.Records {
		x.neighbours(m, masks, r)
		for wi, word := range m {
			for ; word != 0; word &= word - 1 {
				for _, v := range lists[wi*64+bits.TrailingZeros64(word)] {
					if stamp[v] != i+1 {
						stamp[v] = i + 1
						out[i]++
					}
				}
			}
		}
	}
	return out, nil
}

// MinCandidateDiversity is the minimum of CandidateDiversity, 0 for an
// empty table; a release is candidate l-diverse iff it is ≥ l.
func MinCandidateDiversity(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int) (int, error) {
	ds, err := CandidateDiversity(s, tbl, g, sensitive)
	if err != nil || len(ds) == 0 {
		return 0, err
	}
	return slices.Min(ds), nil
}

// ConstraintStatus is one privacy constraint's audit over the equivalence
// classes of a release.
type ConstraintStatus struct {
	// Constraint is the engine-level constraint name (e.g. "distinct(l=3)").
	Constraint string
	// Satisfied reports whether every equivalence class satisfies the
	// constraint; Violations counts the classes that do not.
	Satisfied  bool
	Violations int
	// Classes is the number of equivalence classes audited.
	Classes int
	// MinMetric and MaxMetric bound the constraint's per-class scalar
	// (distinct-value count, effective ℓ, recursive ratio, or EMD) across
	// all classes. Zero for an empty release or a trivial constraint.
	MinMetric, MaxMetric float64
}

// AuditClasses binds c to sensitive (one value per record of g) and
// audits every equivalence class of g against it. A trivial constraint
// holds for every class and is not bound.
func AuditClasses(g *table.GenTable, c cluster.Constraint, sensitive []int) (ConstraintStatus, error) {
	classes := g.Classes()
	a := ConstraintStatus{Constraint: c.String(), Satisfied: true, Classes: len(classes)}
	if c.Trivial() {
		return a, nil
	}
	b, err := c.Bind(sensitive)
	if err != nil {
		return a, err
	}
	for ci, members := range classes {
		b.Reset()
		for _, ri := range members {
			b.Add(ri)
		}
		m := b.Metric()
		if ci == 0 || m < a.MinMetric {
			a.MinMetric = m
		}
		if ci == 0 || m > a.MaxMetric {
			a.MaxMetric = m
		}
		if !b.Satisfied() {
			a.Satisfied = false
			a.Violations++
		}
	}
	return a, nil
}

// Report summarizes which anonymity notions a generalization satisfies for
// a given k, as produced by Check.
type Report struct {
	K              int
	Generalization bool // positional validity (Definition 3.2)
	KAnonymous     bool // Definition 4.1
	OneK           bool // (1,k), Definition 4.4
	KOne           bool // (k,1), Definition 4.4
	KK             bool // (k,k), Definition 4.4
	Global1K       bool // Definition 4.6
	MinMatches     int  // min over records of the number of matches
}

// Check runs every verifier and returns the combined report. One pass over
// the row classes (matches.go) yields (1,k) off the records' consistent-row
// counts, (k,1) off the rows' consistent-record counts, and the match
// counts off the class quotient. On an empty table every notion holds
// vacuously, as it does for the individual verifiers, and MinMatches is 0.
func Check(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) Report {
	rep := Report{
		K:              k,
		Generalization: IsGeneralizationOf(s, tbl, g),
		KAnonymous:     IsKAnonymous(g, k),
	}
	c, right := consistencyCounts(s.Hiers, tbl, g, nil)
	rep.OneK = allAtLeast(c.Consistent, k)
	rep.KOne = allAtLeast(right, k)
	rep.KK = rep.OneK && rep.KOne
	if len(c.Matches) > 0 {
		rep.MinMatches = slices.Min(c.Matches)
	}
	rep.Global1K = allAtLeast(c.Matches, k)
	return rep
}

// String renders the report for CLI output.
func (r Report) String() string {
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	return fmt.Sprintf(
		"k=%d: generalization=%s k-anonymous=%s (1,k)=%s (k,1)=%s (k,k)=%s global(1,k)=%s (min matches %d)",
		r.K, yn(r.Generalization), yn(r.KAnonymous), yn(r.OneK), yn(r.KOne), yn(r.KK), yn(r.Global1K), r.MinMatches)
}
