package loss

import "kanon/internal/table"

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
