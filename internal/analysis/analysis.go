// Package analysis is the project's static-analysis framework: a small,
// dependency-free re-implementation of the golang.org/x/tools/go/analysis
// surface (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list -export` and the standard go/types importer.
//
// The framework exists because the repository's correctness story — the
// determinism, cancellation, panic-containment, observability and
// no-leak invariants of DESIGN.md — must hold at compile time, not only in
// tests and review. Six project-specific analyzers live under
// internal/analysis/...; cmd/kanonlint drives them standalone or as a
// `go vet -vettool`.
//
// # Suppression
//
// A finding is suppressed by an allow directive on the same line or the
// line directly above:
//
//	//kanon:allow ctxflow -- documented nil-ctx normalization at the observability boundary
//
// The directive names one or more analyzers (comma-separated) and must
// carry a reason after " -- "; a missing reason or an unknown analyzer
// name is itself a diagnostic, so the audit trail stays honest (see
// EXPERIMENTS.md: allow sites are audited per release).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check. Per-package analyzers receive each
// target package in turn; whole-program analyzers (WholeProgram true)
// receive a single Pass whose Program field carries every loaded package,
// which is what lets leakcheck follow taint across package boundaries.
type Analyzer struct {
	// Name is the analyzer's identifier, as used in //kanon:allow
	// directives and diagnostic output.
	Name string
	// Doc is the one-paragraph description shown by kanonlint -help.
	Doc string
	// WholeProgram selects the one-shot, all-packages mode.
	WholeProgram bool
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the import path ("kanon/internal/cluster").
	PkgPath string
	// Dir is the package directory on disk.
	Dir string
	// Files are the parsed, type-checked non-test files.
	Files []*ast.File
	// TestFiles are the package's test files (in-package and external),
	// parsed but NOT type-checked: they are read syntactically (the
	// //kanon:allow directive index covers them) and carry no type
	// information.
	TestFiles []*ast.File
	// Types and TypesInfo hold the go/types results for Files.
	Types     *types.Package
	TypesInfo *types.Info
}

// Program is the whole loaded target set, in deterministic (sorted
// import-path) order.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Pass carries one analyzer invocation. Exactly one of Pkg (per-package
// analyzers) or Program-only (whole-program analyzers, Pkg nil) is the
// analysis subject.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package under analysis; nil for whole-program passes.
	Pkg *Package
	// Program is the full target set; always non-nil.
	Program *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Suppressed marks findings covered by a //kanon:allow directive;
	// Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run executes the analyzers over the program and returns every
// diagnostic — suppressed ones included, marked as such — sorted by file,
// line and analyzer. Directive problems (missing reason, unknown analyzer
// name) are reported under the pseudo-analyzer "directive" and are never
// suppressible. extraKnown lists analyzer names that are legal in allow
// directives without running here — go vet's unit mode runs only the
// per-package analyzers, yet directives naming whole-program ones must
// not be flagged as unknown.
func Run(prog *Program, analyzers []*Analyzer, extraKnown ...string) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers)+len(extraKnown))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, name := range extraKnown {
		known[name] = true
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.WholeProgram {
			pass := &Pass{Analyzer: a, Fset: prog.Fset, Program: prog, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range prog.Packages {
			pass := &Pass{Analyzer: a, Fset: prog.Fset, Pkg: pkg, Program: prog, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}

	// Collect allow directives (and directive mistakes) across every file,
	// test files included: directives in test files are legal, they just
	// rarely matter because analyzers skip test files.
	index := newDirectiveIndex()
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			index.addFile(prog.Fset, f, known, &diags)
		}
		for _, f := range pkg.TestFiles {
			index.addFile(prog.Fset, f, known, &diags)
		}
	}
	for i := range diags {
		if diags[i].Analyzer == directiveAnalyzerName {
			continue
		}
		if reason, ok := index.allows(diags[i].Pos, diags[i].Analyzer); ok {
			diags[i].Suppressed = true
			diags[i].Reason = reason
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// Unsuppressed filters diags down to the findings that still gate.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
