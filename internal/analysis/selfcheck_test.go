package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"kanon/internal/analysis"
	"kanon/internal/analysis/analysistest"
	"kanon/internal/analysis/leakcheck"
	"kanon/internal/analysis/suite"
)

// TestSuiteOverRepository is the self-application gate: the full analyzer
// suite runs over every package of the module and must report zero
// unsuppressed diagnostics. Any new violation either gets fixed or gets a
// reasoned //kanon:allow — silently regressing the invariants is not an
// option, in CI or locally.
func TestSuiteOverRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := analysistest.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(prog, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Unsuppressed(diags) {
		t.Errorf("%s", d)
	}

	// The directive inventory must stay non-empty and reasoned: the repo
	// legitimately uses wall-clock phase timing and nil-ctx normalization,
	// and each such site carries its justification (audited per release,
	// see EXPERIMENTS.md).
	dirs, _ := analysis.Directives(prog, suite.Analyzers())
	if len(dirs) == 0 {
		t.Error("no //kanon:allow directives found; expected the documented timing/nil-ctx sites")
	}
	for _, d := range dirs {
		if d.Reason == "" {
			t.Errorf("%s: directive with empty reason", d.Pos)
		}
	}
}

// TestSuiteRegistration pins the full suite: adding an analyzer without
// registering it here (and in the docs) is a silent coverage gap.
func TestSuiteRegistration(t *testing.T) {
	want := []string{
		"constraintpure", "ctxflow", "determinism", "leakcheck",
		"nogoroutine", "obsphase",
	}
	got := suite.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
	per := suite.PerPackage()
	for _, a := range per {
		if a.WholeProgram {
			t.Errorf("PerPackage returned whole-program analyzer %s", a.Name)
		}
	}
	if len(per) != len(want)-1 {
		t.Errorf("PerPackage returned %d analyzers, want %d (all but leakcheck)", len(per), len(want)-1)
	}
}

// TestSeededLeakCaught is the negative self-application case: the gate's
// value rests on it being able to fail, so a deliberately leaking package
// (kept out of the module's package list under testdata) must produce
// exactly the expected finding when the production analyzer runs over it.
func TestSeededLeakCaught(t *testing.T) {
	root, err := analysistest.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analysis.LoadDir(
		filepath.Join(root, "internal", "analysis", "testdata", "seededleak"),
		root, "kanon/internal/seededleak")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{leakcheck.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	un := analysis.Unsuppressed(diags)
	if len(un) != 1 {
		t.Fatalf("seeded leak produced %d findings, want exactly 1: %v", len(un), un)
	}
	if !strings.Contains(un[0].Message, "record value flows into fmt.Errorf") {
		t.Errorf("unexpected finding for the seeded leak: %s", un[0])
	}
}
