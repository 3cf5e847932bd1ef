package loss

import (
	"testing"

	"kanon/internal/table"
)

func metricSchema() *table.Schema {
	return table.MustSchema(
		table.MustAttribute("a", []string{"x", "y"}),
		table.MustAttribute("b", []string{"p", "q"}),
	)
}

func TestDiscernibility(t *testing.T) {
	g := table.NewGen(metricSchema(), 5)
	g.Records[0] = table.GenRecord{0, 0}
	g.Records[1] = table.GenRecord{0, 0}
	g.Records[2] = table.GenRecord{0, 0}
	g.Records[3] = table.GenRecord{1, 1}
	g.Records[4] = table.GenRecord{1, 1}
	// 3² + 2² = 13.
	if got := Discernibility(g); got != 13 {
		t.Errorf("Discernibility = %d, want 13", got)
	}
}

func TestDiscernibilityAllDistinct(t *testing.T) {
	g := table.NewGen(metricSchema(), 3)
	g.Records[0] = table.GenRecord{0, 0}
	g.Records[1] = table.GenRecord{0, 1}
	g.Records[2] = table.GenRecord{1, 0}
	if got := Discernibility(g); got != 3 {
		t.Errorf("Discernibility = %d, want 3 (n, the minimum)", got)
	}
}
