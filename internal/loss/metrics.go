package loss

import (
	"fmt"

	"kanon/internal/table"
)

// Discernibility computes the DM metric of Bayardo–Agrawal over the
// generalized table: Σ over equivalence classes |G|², i.e. each record is
// charged the size of the class it is indistinguishable within. Lower is
// better; the minimum for a k-anonymous table with n records is n·k (all
// classes of size exactly k).
func Discernibility(g *table.GenTable) int {
	sum := 0
	for _, grp := range g.Classes() {
		sum += len(grp) * len(grp)
	}
	return sum
}

// Classification computes the CM metric of Iyengar: the fraction of records
// whose class label disagrees with the majority label of their equivalence
// class. labels[i] is the class of record i (e.g. a sensitive attribute
// value); ties are charged to all non-first-majority labels.
func Classification(g *table.GenTable, labels []int) (float64, error) {
	if len(labels) != g.Len() {
		return 0, fmt.Errorf("loss: %d labels for %d records", len(labels), g.Len())
	}
	if g.Len() == 0 {
		return 0, nil
	}
	penalty := 0
	for _, grp := range g.Classes() {
		counts := make(map[int]int)
		for _, i := range grp {
			counts[labels[i]]++
		}
		best := 0
		//kanon:allow determinism -- max over label counts is a commutative fold
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		penalty += len(grp) - best
	}
	return float64(penalty) / float64(g.Len()), nil
}
