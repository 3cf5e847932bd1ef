package kanon

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestParseConstraints(t *testing.T) {
	cons, err := ParseConstraints("distinct=3, entropy=2.5,recursive=3/2,tclose=0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"distinct=3", "entropy=2.5", "recursive=3/2", "tclose=0.25"}
	if len(cons) != len(want) {
		t.Fatalf("parsed %d constraints, want %d", len(cons), len(want))
	}
	for i, c := range cons {
		if c.String() != want[i] {
			t.Errorf("constraint %d = %q, want %q", i, c, want[i])
		}
	}
	if cons, err := ParseConstraints(""); err != nil || len(cons) != 0 {
		t.Errorf("empty spec: %v, %d constraints", err, len(cons))
	}
	bad := []string{
		"distinct",        // no value
		"distinct=x",      // non-integer
		"distinct=1",      // parameter out of range
		"entropy=1",       // l must exceed 1
		"recursive=3",     // missing /L
		"recursive=0/2",   // c out of range
		"recursive=2/1",   // l out of range
		"tclose=1.5",      // t out of range
		"tclose=-0.1",     // t out of range
		"anonymity=3",     // unknown name
		"distinct=3,,bad", // malformed tail element
	}
	for _, spec := range bad {
		if _, err := ParseConstraints(spec); err == nil {
			t.Errorf("ParseConstraints(%q) accepted", spec)
		}
	}
}

func TestConstraintOptionsValidation(t *testing.T) {
	cases := []struct {
		opt   Options
		field string
	}{
		{Options{K: 2, Constraints: []Constraint{nil}}, "Constraints"},
		{Options{K: 2, Constraints: []Constraint{DistinctDiversity(1)}}, "Constraints"},
		{Options{K: 2, Constraints: []Constraint{EntropyDiversity(1)}}, "Constraints"},
		{Options{K: 2, Constraints: []Constraint{RecursiveDiversity(0, 2)}}, "Constraints"},
		{Options{K: 2, Constraints: []Constraint{Closeness(1.5)}}, "Constraints"},
		{Options{K: 2, Notion: NotionK, Algorithm: AlgForest, Constraints: []Constraint{Closeness(0.3)}}, "Constraints"},
		{Options{K: 2, Notion: NotionK, Algorithm: AlgFullDomain, Constraints: []Constraint{Closeness(0.3)}}, "Constraints"},
		{Options{K: 2, Notion: NotionK, MaxChunk: 50, Constraints: []Constraint{Closeness(0.3)}}, "Constraints"},
		{Options{K: 2, Notion: NotionGlobal1K, Constraints: []Constraint{Closeness(0.3)}}, "Constraints"},
		{Options{K: 2, Notion: NotionGlobal1K, Algorithm: AlgNearest, Constraints: []Constraint{DistinctDiversity(2)}}, "Constraints"},
	}
	for _, tc := range cases {
		err := tc.opt.Validate()
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Errorf("Validate(%+v) = %v, want *OptionsError", tc.opt, err)
			continue
		}
		if oe.Field != tc.field {
			t.Errorf("Validate(%+v).Field = %q, want %q", tc.opt, oe.Field, tc.field)
		}
	}
	good := []Options{
		{K: 2, Constraints: []Constraint{DistinctDiversity(2), Closeness(0.4)}},
		{K: 2, Notion: NotionKK, Constraints: []Constraint{EntropyDiversity(1.5)}},
		{K: 2, Notion: NotionKK, Algorithm: AlgNearest, Constraints: []Constraint{DistinctDiversity(2)}},
	}
	for _, opt := range good {
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opt, err)
		}
	}
}

func TestAnonymizeWithConstraints(t *testing.T) {
	tbl := ART(150, 11)
	cases := [][]Constraint{
		{EntropyDiversity(1.8)},
		{RecursiveDiversity(4, 2)},
		{Closeness(0.5)},
		{DistinctDiversity(2), Closeness(0.6)},
	}
	for _, cons := range cases {
		name := constraintString(cons)
		res, err := Anonymize(tbl, Options{K: 4, Notion: NotionK, Constraints: cons})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Verify(4).KAnonymous {
			t.Errorf("%s: release not 4-anonymous", name)
		}
		report, err := res.ConstraintReport()
		if err != nil {
			t.Fatalf("%s: report: %v", name, err)
		}
		if len(report) != len(cons) {
			t.Fatalf("%s: report has %d entries, want %d", name, len(report), len(cons))
		}
		for _, st := range report {
			if !st.Satisfied || st.Violations != 0 {
				t.Errorf("%s: %s not satisfied (%d violations over %d classes)",
					name, st.Constraint, st.Violations, st.Classes)
			}
			if st.Classes == 0 {
				t.Errorf("%s: %s audited no classes", name, st.Constraint)
			}
		}
	}
	// Constraints without a sensitive attribute are rejected up front.
	plain := loadFacadeTable(t)
	if _, err := Anonymize(plain, Options{K: 2, Constraints: []Constraint{Closeness(0.3)}}); err == nil {
		t.Error("expected sensitive-attribute error")
	}
	// Unattainable parameters surface the engine's infeasibility error.
	_, err := Anonymize(tbl, Options{K: 2, Constraints: []Constraint{DistinctDiversity(40)}})
	if err == nil || !strings.Contains(err.Error(), "unattainable") {
		t.Errorf("infeasible distinct=40: %v", err)
	}
	// Same infeasibility on the (k,k) pipeline.
	_, err = Anonymize(tbl, Options{K: 2, Notion: NotionKK, Constraints: []Constraint{DistinctDiversity(40)}})
	if err == nil || !strings.Contains(err.Error(), "unattainable") {
		t.Errorf("infeasible distinct=40 under (k,k): %v", err)
	}
}

// TestConstraintsOnKK checks the candidate-set guarantee: under NotionKK
// with a diversity constraint, every record's candidate set satisfies it
// (CandidateDiversity is the min candidate-set distinct count).
func TestConstraintsOnKK(t *testing.T) {
	tbl := ART(120, 13)
	res, err := Anonymize(tbl, Options{K: 3, Notion: NotionKK,
		Constraints: []Constraint{DistinctDiversity(2)}})
	if err != nil {
		t.Fatal(err)
	}
	div, err := res.CandidateDiversity()
	if err != nil {
		t.Fatal(err)
	}
	if div < 2 {
		t.Errorf("candidate diversity %d < 2", div)
	}
}

// TestClosenessGroundAutoDetect pins the ground-metric choice: a numeric
// sensitive domain gets the ordered ground, a categorical one the equal
// ground. Observable through the EMD of a maximally skewed class — under
// the ordered ground adjacent values are cheap to move between, under the
// equal ground every value swap costs the same.
func TestClosenessGroundAutoDetect(t *testing.T) {
	mk := func(domain []string) *Table {
		tbl := loadFacadeTable(t)
		vals := make([]string, tbl.Len())
		for i := range vals {
			vals[i] = domain[i%len(domain)]
		}
		if err := tbl.SetSensitive("s", vals); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	numeric := mk([]string{"10", "20", "30", "40"})
	cc, err := Closeness(0.3).build(numeric)
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.String(); !strings.Contains(got, "ordered") {
		t.Errorf("numeric domain ground = %q, want ordered", got)
	}
	categorical := mk([]string{"flu", "cold", "none"})
	cc, err = Closeness(0.3).build(categorical)
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.String(); strings.Contains(got, "ordered") {
		t.Errorf("categorical domain ground = %q, want equal ground", got)
	}
}

// TestConstraintReportAbsent checks the no-constraint and trivial paths.
func TestConstraintReportAbsent(t *testing.T) {
	tbl := ART(80, 17)
	res, err := Anonymize(tbl, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	report, err := res.ConstraintReport()
	if err != nil || report != nil {
		t.Errorf("unconstrained run report = %v, %v; want nil, nil", report, err)
	}
	// A trivial constraint (t=1) reports satisfied without binding.
	res, err = Anonymize(tbl, Options{K: 3, Constraints: []Constraint{Closeness(1)}})
	if err != nil {
		t.Fatal(err)
	}
	report, err = res.ConstraintReport()
	if err != nil || len(report) != 1 || !report[0].Satisfied {
		t.Errorf("trivial constraint report = %+v, %v", report, err)
	}
}

// TestConstraintStringsStable pins the String() forms the CLIs and reports
// rely on.
func TestConstraintStringsStable(t *testing.T) {
	cases := map[Constraint]string{
		DistinctDiversity(3):       "distinct=3",
		EntropyDiversity(2.5):      "entropy=2.5",
		RecursiveDiversity(3, 2):   "recursive=3/2",
		Closeness(0.25):            "tclose=0.25",
		RecursiveDiversity(0.5, 4): "recursive=0.5/4",
	}
	for c, want := range cases {
		if got := fmt.Sprint(c); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
