package core

import (
	"fmt"
	"sort"

	"kanon/internal/cluster"
	"kanon/internal/table"
)

// CandidateDiversity returns, for every original record, the number of
// distinct sensitive values among the generalized records consistent with
// it — the first adversary's residual uncertainty about the sensitive
// attribute.
func CandidateDiversity(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int) ([]int, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("core: generalized table has %d records, original has %d", g.Len(), n)
	}
	if len(sensitive) != n {
		return nil, fmt.Errorf("core: %d sensitive values for %d records", len(sensitive), n)
	}
	out := make([]int, n)
	for i, ri := range tbl.Records {
		values := make(map[int]bool)
		for j := 0; j < n; j++ {
			if s.Consistent(ri, g.Records[j]) {
				values[sensitive[j]] = true
			}
		}
		out[i] = len(values)
	}
	return out, nil
}

// MinCandidateDiversity is the minimum of CandidateDiversity; a release is
// candidate l-diverse iff this is ≥ l.
func MinCandidateDiversity(s *cluster.Space, tbl *table.Table, g *table.GenTable, sensitive []int) (int, error) {
	ds, err := CandidateDiversity(s, tbl, g, sensitive)
	if err != nil {
		return 0, err
	}
	if len(ds) == 0 {
		return 0, nil
	}
	sort.Ints(ds)
	return ds[0], nil
}
