package determinism_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"kanon/internal/analysis/analysistest"
	"kanon/internal/analysis/determinism"
)

// TestDeterminismFindings pins the failing cases: wall clock, shared
// rand source and map iteration inside a deterministic package, plus the
// //kanon:allow suppression form.
func TestDeterminismFindings(t *testing.T) {
	analysistest.Run(t, "testdata/det", "kanon/internal/cluster", determinism.Analyzer)
}

// TestDeterminismGate pins that the analyzer keeps quiet outside the
// deterministic package set.
func TestDeterminismGate(t *testing.T) {
	analysistest.Run(t, "testdata/ungated", "kanon/internal/experiment", determinism.Analyzer)
}

// TestNoWaiversInProduction keeps determinism a property of the code, not
// of its suppressions: no non-test Go file of a Paths package (or of a
// package below one) may carry a //kanon:allow directive naming this
// analyzer. Test files, where the naive oracles live, may still waive.
func TestNoWaiversInProduction(t *testing.T) {
	root, err := analysistest.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, p := range determinism.Paths {
		rel, ok := strings.CutPrefix(p, "kanon/")
		if !ok {
			t.Fatalf("Paths entry %q is outside module kanon", p)
		}
		err := filepath.WalkDir(filepath.Join(root, filepath.FromSlash(rel)), func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if waivesDeterminism(c.Text) {
						t.Errorf("%s: %s", fset.Position(c.Pos()), c.Text)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("no Go files found under determinism.Paths")
	}
}

// waivesDeterminism reports whether a comment is a //kanon:allow directive
// whose analyzer list (before " -- ") names determinism.
func waivesDeterminism(text string) bool {
	body, ok := strings.CutPrefix(text, "//kanon:allow")
	if !ok {
		return false
	}
	spec, _, _ := strings.Cut(body, "--")
	for _, name := range strings.Split(spec, ",") {
		if strings.TrimSpace(name) == "determinism" {
			return true
		}
	}
	return false
}
