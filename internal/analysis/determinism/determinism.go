// Package determinism implements the kanonlint analyzer guarding the
// stack's bit-identical-output contract (DESIGN.md §8, §11): inside the
// deterministic engine packages, wall-clock reads, the shared math/rand
// source and map-iteration order must not be able to leak into ordered
// output.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"kanon/internal/analysis"
)

// Paths are the deterministic packages the analyzer gates: every engine
// whose output the equivalence harness pins bit-for-bit at any worker
// count.
var Paths = []string{
	"kanon/internal/cluster",
	"kanon/internal/core",
	"kanon/internal/bipartite",
	"kanon/internal/hierarchy",
	"kanon/internal/loss",
	"kanon/internal/attack",
	"kanon/internal/risk",
}

// Analyzer flags time.Now, unseeded math/rand use and map iteration in
// the deterministic packages.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag wall-clock reads, shared-source math/rand and map iteration " +
		"inside the deterministic engine packages (cluster, core, bipartite, " +
		"hierarchy, loss, attack, risk); suppress provably order-insensitive " +
		"sites with //kanon:allow determinism -- reason",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathWithinAny(pass.Pkg.PkgPath, Paths) {
		return nil
	}
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := analysis.CalleeFunc(info, n)
				if fn == nil {
					return true
				}
				if analysis.IsPkgFunc(fn, "time", "Now") {
					pass.Reportf(n.Pos(), "time.Now in deterministic package %s: wall-clock values must not flow into engine output", pass.Pkg.PkgPath)
				}
				if isSharedRand(fn) {
					pass.Reportf(n.Pos(), "math/rand.%s uses the shared global source: deterministic engines must thread an explicitly seeded *rand.Rand", fn.Name())
				}
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						pass.Reportf(n.Pos(), "map iteration order is nondeterministic: sort the keys first, or annotate a provably order-insensitive fold")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isSharedRand reports whether fn is a package-level math/rand (or /v2)
// function drawing from the shared global source. The New* constructors
// are the sanctioned escape hatch: they build explicitly seeded sources.
func isSharedRand(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false // methods on *rand.Rand carry their own source
	}
	return !strings.HasPrefix(fn.Name(), "New")
}
