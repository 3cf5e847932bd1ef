package attack

import (
	"fmt"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/table"
)

// SimulateInformed models the "even stronger adversary" that Section IV-A
// defers to the paper's full version: on top of the second adversary's
// knowledge (all public data and the exact database population) she knows
// the *private* values of some individuals. Knowing that individual u has
// sensitive value s rules out every released record whose position carries
// a different sensitive value as u's record: those edges are deleted from
// the consistency graph before the match analysis. The candidates of every
// other individual shrink accordingly.
//
// known lists the record indices whose sensitive value the adversary
// knows; sensitive must hold one value per record. The returned counts are
// the per-record match candidates under this stronger adversary (0 for
// everyone if the pruned graph somehow loses its perfect matching, which
// cannot happen for positional generalizations since identity edges are
// never pruned). They come from the release's row classes refined by
// sensitive value (anonymity.InformedMatches), with no edge list.
func SimulateInformed(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int, known []int) ([]int, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("attack: generalized table has %d records, original has %d", g.Len(), n)
	}
	if len(sensitive) != n {
		return nil, fmt.Errorf("attack: %d sensitive values for %d records", len(sensitive), n)
	}
	isKnown := make([]bool, n)
	for _, u := range known {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("attack: known index %d out of range", u)
		}
		isKnown[u] = true
	}
	return anonymity.InformedMatches(s, tbl, g, sensitive, isKnown), nil
}
