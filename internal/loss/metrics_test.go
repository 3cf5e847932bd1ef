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

func TestClassification(t *testing.T) {
	g := table.NewGen(metricSchema(), 6)
	for i := 0; i < 3; i++ {
		g.Records[i] = table.GenRecord{0, 0}
	}
	for i := 3; i < 6; i++ {
		g.Records[i] = table.GenRecord{1, 1}
	}
	// Group 1 labels: 1,1,2 -> 1 penalty. Group 2 labels: 3,3,3 -> 0.
	labels := []int{1, 1, 2, 3, 3, 3}
	got, err := Classification(g, labels)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 6; got != want {
		t.Errorf("Classification = %v, want %v", got, want)
	}
}

func TestClassificationErrors(t *testing.T) {
	g := table.NewGen(metricSchema(), 2)
	if _, err := Classification(g, []int{1}); err == nil {
		t.Error("expected label-count mismatch error")
	}
}

func TestClassificationEmpty(t *testing.T) {
	g := table.NewGen(metricSchema(), 0)
	got, err := Classification(g, nil)
	if err != nil || got != 0 {
		t.Errorf("Classification(empty) = %v, %v; want 0, nil", got, err)
	}
}
