// Package suite registers the project's kanonlint analyzers. It exists
// as its own package (rather than in internal/analysis) so the framework
// does not import the analyzers it runs.
package suite

import (
	"kanon/internal/analysis"
	"kanon/internal/analysis/constraintpure"
	"kanon/internal/analysis/ctxflow"
	"kanon/internal/analysis/determinism"
	"kanon/internal/analysis/leakcheck"
	"kanon/internal/analysis/nogoroutine"
	"kanon/internal/analysis/obsphase"
)

// Analyzers returns the full kanonlint suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		constraintpure.Analyzer,
		ctxflow.Analyzer,
		determinism.Analyzer,
		leakcheck.Analyzer,
		nogoroutine.Analyzer,
		obsphase.Analyzer,
	}
}

// PerPackage returns only the analyzers that work one package at a time —
// the set usable under go vet's per-unit protocol, where no whole-program
// view exists (leakcheck runs in standalone kanonlint and CI instead).
func PerPackage() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range Analyzers() {
		if !a.WholeProgram {
			out = append(out, a)
		}
	}
	return out
}
