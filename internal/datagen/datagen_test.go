package datagen

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/loss"
)

func TestARTShape(t *testing.T) {
	ds := ART(500, 1)
	if ds.Name != "ART" {
		t.Errorf("Name = %q", ds.Name)
	}
	if ds.Table.Len() != 500 {
		t.Errorf("Len = %d, want 500", ds.Table.Len())
	}
	if got := ds.Table.Schema.NumAttrs(); got != 6 {
		t.Errorf("attrs = %d, want 6", got)
	}
	wantSizes := []int{2, 4, 4, 25, 10, 5}
	for j, want := range wantSizes {
		if got := ds.Table.Schema.Attrs[j].Size(); got != want {
			t.Errorf("attr %d domain size = %d, want %d", j, got, want)
		}
		if got := ds.Hiers[j].NumValues(); got != want {
			t.Errorf("hierarchy %d values = %d, want %d", j, got, want)
		}
	}
	if len(ds.Sensitive) != 500 {
		t.Errorf("sensitive length = %d", len(ds.Sensitive))
	}
}

func TestARTHierarchyCounts(t *testing.T) {
	ds := ART(10, 1)
	// Non-trivial subsets per paper: A1:0, A2:2, A3:2, A4:6, A5:6, A6:3.
	wantInternal := []int{0, 2, 2, 6, 6, 3}
	for j, want := range wantInternal {
		h := ds.Hiers[j]
		got := h.NumNodes() - h.NumValues() - 1 // minus leaves and root
		if got != want {
			t.Errorf("A%d: %d non-trivial subsets, want %d", j+1, got, want)
		}
		if err := h.Validate(); err != nil {
			t.Errorf("A%d: %v", j+1, err)
		}
	}
}

func TestARTDistributions(t *testing.T) {
	// Empirical marginals must be within a few points of the paper's spec.
	ds := ART(20000, 7)
	checks := []struct {
		attr  int
		value int
		want  float64
	}{
		{0, 0, 0.7}, {0, 1, 0.3},
		{1, 0, 0.3}, {1, 2, 0.2},
		{2, 2, 0.4}, {2, 3, 0.1},
		{3, 0, 0.07}, {3, 6, 0.04}, {3, 24, 0.02},
		{4, 5, 0.1},
		{5, 2, 0.5}, {5, 0, 0.05},
	}
	n := float64(ds.Table.Len())
	for _, c := range checks {
		counts := ds.Table.ValueCounts(c.attr)
		got := float64(counts[c.value]) / n
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("attr %d value %d: frequency %.3f, want %.3f±0.02", c.attr, c.value, got, c.want)
		}
	}
}

func TestARTDeterminism(t *testing.T) {
	a := ART(100, 42)
	b := ART(100, 42)
	for i := range a.Table.Records {
		if !slices.Equal(a.Table.Records[i], b.Table.Records[i]) {
			t.Fatalf("record %d differs across same-seed runs", i)
		}
		if a.Sensitive[i] != b.Sensitive[i] {
			t.Fatalf("sensitive %d differs across same-seed runs", i)
		}
	}
	c := ART(100, 43)
	same := true
	for i := range a.Table.Records {
		if !slices.Equal(a.Table.Records[i], c.Table.Records[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical tables")
	}
}

func TestAdultShape(t *testing.T) {
	ds := Adult(800, 2)
	if ds.Name != "ADT" {
		t.Errorf("Name = %q", ds.Name)
	}
	if got := ds.Table.Schema.NumAttrs(); got != 9 {
		t.Errorf("attrs = %d, want 9 (the paper's public attributes)", got)
	}
	wantNames := []string{"age", "workclass", "education", "marital-status",
		"occupation", "relationship", "race", "sex", "native-country"}
	for j, want := range wantNames {
		if got := ds.Table.Schema.Attrs[j].Name; got != want {
			t.Errorf("attr %d = %q, want %q", j, got, want)
		}
	}
	for j, h := range ds.Hiers {
		if err := h.Validate(); err != nil {
			t.Errorf("hierarchy %d: %v", j, err)
		}
		if h.NumValues() != ds.Table.Schema.Attrs[j].Size() {
			t.Errorf("hierarchy %d size mismatch", j)
		}
	}
	if len(ds.SensitiveValues) != 2 {
		t.Error("Adult sensitive attribute should be binary income")
	}
}

func TestAdultCorrelations(t *testing.T) {
	ds := Adult(8000, 3)
	// Married individuals must be husbands/wives consistently with sex.
	maritalIdx := ds.Table.Schema.AttrIndex("marital-status")
	relIdx := ds.Table.Schema.AttrIndex("relationship")
	sexIdx := ds.Table.Schema.AttrIndex("sex")
	for i, r := range ds.Table.Records {
		rel := ds.Table.Schema.Attrs[relIdx].Value(r[relIdx])
		sex := ds.Table.Schema.Attrs[sexIdx].Value(r[sexIdx])
		if rel == "Husband" && sex != "Male" {
			t.Fatalf("record %d: husband with sex %s", i, sex)
		}
		if rel == "Wife" && sex != "Female" {
			t.Fatalf("record %d: wife with sex %s", i, sex)
		}
	}
	// Young people should be mostly never-married.
	ageIdx := ds.Table.Schema.AttrIndex("age")
	young, youngNever := 0, 0
	for _, r := range ds.Table.Records {
		if r[ageIdx] < 5 { // ages 17..21
			young++
			if ds.Table.Schema.Attrs[maritalIdx].Value(r[maritalIdx]) == "Never-married" {
				youngNever++
			}
		}
	}
	if young > 50 && float64(youngNever)/float64(young) < 0.5 {
		t.Errorf("only %d/%d young records never-married", youngNever, young)
	}
}

func TestAdultIncomeSkew(t *testing.T) {
	ds := Adult(8000, 4)
	eduIdx := ds.Table.Schema.AttrIndex("education")
	richAdvanced, nAdvanced := 0, 0
	richLow, nLow := 0, 0
	for i, r := range ds.Table.Records {
		if r[eduIdx] >= 13 {
			nAdvanced++
			richAdvanced += ds.Sensitive[i]
		} else if r[eduIdx] <= 8 {
			nLow++
			richLow += ds.Sensitive[i]
		}
	}
	if nAdvanced > 100 && nLow > 100 {
		if float64(richAdvanced)/float64(nAdvanced) <= float64(richLow)/float64(nLow) {
			t.Error("income should correlate with education")
		}
	}
}

func TestCMCShape(t *testing.T) {
	ds := CMC(1473, 5)
	if ds.Name != "CMC" {
		t.Errorf("Name = %q", ds.Name)
	}
	if ds.Table.Len() != 1473 {
		t.Errorf("Len = %d", ds.Table.Len())
	}
	if got := ds.Table.Schema.NumAttrs(); got != 9 {
		t.Errorf("attrs = %d, want 9", got)
	}
	for j, h := range ds.Hiers {
		if err := h.Validate(); err != nil {
			t.Errorf("hierarchy %d: %v", j, err)
		}
	}
	if len(ds.SensitiveValues) != 3 {
		t.Error("CMC class should have 3 values")
	}
	// Class balance roughly matches the UCI proportions.
	counts := make([]int, 3)
	for _, v := range ds.Sensitive {
		counts[v]++
	}
	noUse := float64(counts[0]) / float64(len(ds.Sensitive))
	if noUse < 0.30 || noUse > 0.60 {
		t.Errorf("no-use proportion %.2f outside plausible band", noUse)
	}
}

func TestCMCChildrenCorrelateWithAge(t *testing.T) {
	ds := CMC(6000, 6)
	ageIdx := 0
	childIdx := 3
	sumYoung, nYoung, sumOld, nOld := 0, 0, 0, 0
	for _, r := range ds.Table.Records {
		age := 16 + r[ageIdx]
		if age < 22 {
			nYoung++
			sumYoung += r[childIdx]
		}
		if age > 40 {
			nOld++
			sumOld += r[childIdx]
		}
	}
	if nYoung > 50 && nOld > 50 {
		if float64(sumYoung)/float64(nYoung) >= float64(sumOld)/float64(nOld) {
			t.Error("children count should increase with age")
		}
	}
}

func TestDatasetsUsableBySpaces(t *testing.T) {
	// Every generator's output must wire into a clustering space under
	// every measure without errors.
	for _, ds := range []*Dataset{ART(50, 1), Adult(50, 1), CMC(50, 1)} {
		em, err := loss.NewEntropy(ds.Table, ds.Hiers)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if _, err := cluster.NewSpace(ds.Hiers, em); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if _, err := cluster.NewSpace(ds.Hiers, loss.NewLM(ds.Hiers)); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
	}
}

func TestSamplerDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := newSampler([]float64{1, 3})
	counts := [2]int{}
	for i := 0; i < 40000; i++ {
		counts[s.draw(rng)]++
	}
	p := float64(counts[1]) / 40000
	if math.Abs(p-0.75) > 0.02 {
		t.Errorf("sampler frequency %.3f, want 0.75", p)
	}
}

func TestSamplerNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	newSampler([]float64{1, -1})
}

func TestRepeatWeights(t *testing.T) {
	w := repeatWeights([2]float64{2, 0.3}, [2]float64{1, 0.4})
	if len(w) != 3 || w[0] != 0.3 || w[2] != 0.4 {
		t.Errorf("repeatWeights = %v", w)
	}
}

func TestItoa(t *testing.T) {
	for _, c := range []struct {
		in   int
		want string
	}{{0, "0"}, {7, "7"}, {42, "42"}, {1987, "1987"}} {
		if got := itoa(c.in); got != c.want {
			t.Errorf("itoa(%d) = %q", c.in, got)
		}
	}
}

func TestRelabelRanges(t *testing.T) {
	ds := Adult(10, 1)
	h := ds.Hiers[0] // age
	// Every internal non-root node should have a "lo-hi" label.
	for u := h.NumValues(); u < h.NumNodes(); u++ {
		if u == h.Root() {
			continue
		}
		if l := h.Label(u); len(l) == 0 || l[0] == 'n' {
			t.Errorf("node %d label %q not relabeled", u, l)
		}
	}
}
