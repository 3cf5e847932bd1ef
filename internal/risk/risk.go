// Package risk computes standard re-identification risk metrics over a
// released generalization, complementing the anonymity verifiers with the
// disclosure-risk vocabulary used by statistical agencies and tools like
// ARX:
//
//   - prosecutor risk: the adversary targets a specific individual known
//     to be in the release; her success probability for record i is
//     1/|candidates(i)|.
//   - journalist risk: the adversary wants to re-identify *someone*; the
//     headline is the maximum prosecutor risk over all records.
//   - marketer risk: the adversary links as many records as possible; the
//     expected fraction of correct links is the average of 1/|candidates|.
//
// Candidate sets can be computed under either of the paper's adversaries:
// equivalence classes (the k-anonymity view), consistency neighbours (the
// first adversary) or perfect-matching candidates (the second adversary).
package risk

import (
	"fmt"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/table"
)

// Model selects how candidate sets are computed.
type Model int

const (
	// ByClass uses equivalence classes of identical released records —
	// the classical k-anonymity risk model.
	ByClass Model = iota
	// ByNeighbors uses the first adversary's candidate sets: released
	// records consistent with the target's public data.
	ByNeighbors
	// ByMatches uses the second adversary's candidate sets: released
	// records whose link extends to a perfect matching.
	ByMatches
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ByClass:
		return "class"
	case ByNeighbors:
		return "neighbors"
	case ByMatches:
		return "matches"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Report aggregates the three risk metrics.
type Report struct {
	Model Model
	// Prosecutor is the per-record success probability 1/|candidates(i)|,
	// indexed by record.
	Prosecutor []float64
	// Journalist is the maximum prosecutor risk.
	Journalist float64
	// Marketer is the mean prosecutor risk: the expected fraction of
	// records an indiscriminate linker gets right.
	Marketer float64
}

// Assess computes the risk report for a release under the chosen model.
// For ByClass the original table may be nil; the other models need it.
func Assess(s *cluster.Space, tbl *table.Table, g *table.GenTable, model Model) (*Report, error) {
	n := g.Len()
	rep := &Report{Model: model, Prosecutor: make([]float64, n)}
	if n == 0 {
		return rep, nil
	}
	counts := make([]int, n)
	switch model {
	case ByClass:
		for _, grp := range g.Classes() {
			for _, i := range grp {
				counts[i] = len(grp)
			}
		}
	case ByNeighbors:
		if tbl == nil || tbl.Len() != n {
			return nil, fmt.Errorf("risk: neighbours model needs the original table")
		}
		counts, _ = anonymity.ConsistencyDegrees(s, tbl, g)
	case ByMatches:
		if tbl == nil || tbl.Len() != n {
			return nil, fmt.Errorf("risk: matches model needs the original table")
		}
		counts = anonymity.MatchCounts(s, tbl, g)
	default:
		return nil, fmt.Errorf("risk: unknown model %d", model)
	}
	sum := 0.0
	for i, c := range counts {
		r := 1.0
		if c > 0 {
			r = 1.0 / float64(c)
		}
		rep.Prosecutor[i] = r
		if r > rep.Journalist {
			rep.Journalist = r
		}
		sum += r
	}
	rep.Marketer = sum / float64(n)
	return rep, nil
}

// AtRiskCount returns how many records have prosecutor risk above 1/k —
// i.e. fewer than k candidates.
func (r *Report) AtRiskCount(k int) int {
	threshold := 1.0 / float64(k)
	count := 0
	for _, p := range r.Prosecutor {
		if p > threshold+1e-12 {
			count++
		}
	}
	return count
}

// String renders the headline numbers.
func (r *Report) String() string {
	return fmt.Sprintf("risk(%s): journalist=%.4f marketer=%.4f over %d records",
		r.Model, r.Journalist, r.Marketer, len(r.Prosecutor))
}
