// Package attack simulates the two adversaries of Section IV-A of
// "k-Anonymization Revisited" against a released generalization, making the
// paper's security discussion executable:
//
//   - The first adversary knows the public data of all individuals and
//     that some target individual is in the database. Her candidate set
//     for a target record R_i is every released record consistent with
//     R_i. (1,k)-anonymity promises this set has size ≥ k.
//   - The second adversary additionally knows the exact subset of the
//     population in the database — the entire original table D. She can
//     build the bipartite consistency graph and discard neighbours that
//     cannot participate in any perfect matching; her candidate set is the
//     set of matches of Definition 4.6. Only global (1,k)-anonymity bounds
//     this set by k.
//
// Beyond counting candidates, the package measures what actually leaks:
// a candidate set is harmless if it is large, and harmful if every
// candidate carries the same sensitive value — the homogeneity attack of
// Machanavajjhala et al., which ℓ-diversity addresses.
package attack

import (
	"fmt"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/table"
)

// Outcome records both adversaries' candidate sets for one target record.
type Outcome struct {
	// Record is the index of the targeted original record.
	Record int
	// Candidates1 is the first adversary's candidate count: released
	// records consistent with the target.
	Candidates1 int
	// Candidates2 is the second adversary's candidate count: matches in
	// the consistency graph. Zero when the graph has no perfect matching
	// (then the release is not a positional generalization and the second
	// adversary's reasoning does not apply).
	Candidates2 int
	// SensitiveExposed1 and SensitiveExposed2 report whether every
	// candidate of the respective adversary carries the same sensitive
	// value — i.e. the target's sensitive value is disclosed regardless of
	// which candidate is the true record. Only set when sensitive values
	// were supplied.
	SensitiveExposed1 bool
	SensitiveExposed2 bool
}

// Simulate runs both adversaries against every record of the original
// table. sensitive may be nil; if present it must have one value per
// record, and the homogeneity analysis is included.
func Simulate(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int) ([]Outcome, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("attack: generalized table has %d records, original has %d", g.Len(), n)
	}
	if sensitive != nil && len(sensitive) != n {
		return nil, fmt.Errorf("attack: %d sensitive values for %d records", len(sensitive), n)
	}

	c := anonymity.RecordCandidates(s, tbl, g, sensitive)
	outcomes := make([]Outcome, n)
	for i := range outcomes {
		o := Outcome{Record: i, Candidates1: c.Consistent[i], Candidates2: c.Matches[i]}
		if sensitive != nil {
			o.SensitiveExposed1 = c.ExposedConsistent[i]
			o.SensitiveExposed2 = c.ExposedMatches[i]
		}
		outcomes[i] = o
	}
	return outcomes, nil
}

// homogeneous reports whether all candidates carry the same sensitive
// value (and there is at least one candidate); sensitive[j] is the value of
// candidate j. A candidate outside sensitive has an unknown value and
// blocks homogeneity.
func homogeneous(candidates []int, sensitive []int) bool {
	if len(candidates) == 0 {
		return false
	}
	for _, j := range candidates {
		if j >= len(sensitive) || sensitive[j] != sensitive[candidates[0]] {
			return false
		}
	}
	return true
}

// Summary aggregates attack outcomes against a target anonymity level k.
type Summary struct {
	K int
	// Breaches1 and Breaches2 count records whose candidate set is below k
	// for the first and second adversary respectively.
	Breaches1, Breaches2 int
	// MinCandidates1 and MinCandidates2 are the smallest candidate sets
	// observed.
	MinCandidates1, MinCandidates2 int
	// Exposed1 and Exposed2 count records whose sensitive value is fully
	// disclosed to the respective adversary (homogeneous candidate set).
	Exposed1, Exposed2 int
}

// Summarize folds per-record outcomes into a Summary for the given k.
func Summarize(outcomes []Outcome, k int) Summary {
	s := Summary{K: k}
	if len(outcomes) == 0 {
		return s
	}
	s.MinCandidates1 = outcomes[0].Candidates1
	s.MinCandidates2 = outcomes[0].Candidates2
	for _, o := range outcomes {
		if o.Candidates1 < k {
			s.Breaches1++
		}
		if o.Candidates2 < k {
			s.Breaches2++
		}
		if o.Candidates1 < s.MinCandidates1 {
			s.MinCandidates1 = o.Candidates1
		}
		if o.Candidates2 < s.MinCandidates2 {
			s.MinCandidates2 = o.Candidates2
		}
		if o.SensitiveExposed1 {
			s.Exposed1++
		}
		if o.SensitiveExposed2 {
			s.Exposed2++
		}
	}
	return s
}

// String renders the summary for reports.
func (s Summary) String() string {
	return fmt.Sprintf(
		"k=%d: adversary-1 breaches=%d (min candidates %d, %d sensitive exposures); "+
			"adversary-2 breaches=%d (min candidates %d, %d sensitive exposures)",
		s.K, s.Breaches1, s.MinCandidates1, s.Exposed1,
		s.Breaches2, s.MinCandidates2, s.Exposed2)
}
