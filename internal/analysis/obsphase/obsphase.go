// Package obsphase implements the kanonlint analyzer guarding the
// observability phase-bracket contract (DESIGN.md §10): every
// obs.Run.Phase call starts a phase and returns the closure that ends
// it, and that closure must run on every path out of the function —
// otherwise Metrics aggregation sees unbalanced KindPhaseStart /
// KindPhaseEnd streams and per-phase wall times go bogus. The analyzer
// also forbids forging the bracket events raw (an obs.Event literal with
// a phase kind), because hand-rolled brackets are how pairing drifts in
// the first place.
package obsphase

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"kanon/internal/analysis"
)

// ObsPath is the observability package defining Run.Phase; the analyzer
// skips it (the Phase implementation legitimately emits bracket events).
const ObsPath = "kanon/internal/obs"

// Analyzer checks Phase-closure discipline and bracket-event hygiene.
var Analyzer = &analysis.Analyzer{
	Name: "obsphase",
	Doc: "require every obs.Run.Phase closure to be deferred or called on " +
		"all return paths, and forbid raw KindPhaseStart/KindPhaseEnd " +
		"emission outside internal/obs",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if analysis.PathWithin(pass.Pkg.PkgPath, ObsPath) {
		return nil
	}
	info := pass.Pkg.TypesInfo
	for _, f := range pass.Pkg.Files {
		// Each function body (declared or literal) is analyzed on its own:
		// a Phase closure must be resolved within the function that opened
		// the phase.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBody(pass, info, n.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, info, n.Body)
			case *ast.CompositeLit:
				checkRawEventLit(pass, info, n)
			}
			return true
		})
	}
	return nil
}

// isPhaseCall reports whether call is obs.Run.Phase(...).
func isPhaseCall(info *types.Info, call *ast.CallExpr) bool {
	return analysis.IsMethod(analysis.CalleeFunc(info, call), ObsPath, "Run", "Phase")
}

// checkBody classifies every Phase call directly inside body (nested
// function literals are analyzed separately) and, for closures assigned
// to a local variable, verifies the closure is called on every path out
// of the function.
func checkBody(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt) {
	parents := map[ast.Node]ast.Node{}
	var phaseCalls []*ast.CallExpr
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		if _, ok := n.(*ast.FuncLit); ok {
			// Separate function, checked on its own; not pushed because a
			// skipped subtree gets no closing nil callback.
			return false
		}
		stack = append(stack, n)
		if call, ok := n.(*ast.CallExpr); ok && isPhaseCall(info, call) {
			phaseCalls = append(phaseCalls, call)
		}
		return true
	})

	for _, pc := range phaseCalls {
		switch p := parents[pc].(type) {
		case *ast.CallExpr:
			// o.Phase(x)() — immediately invoked.
			if p.Fun != ast.Expr(pc) {
				pass.Reportf(pc.Pos(), "obs.Run.Phase closure passed as an argument: defer it or call it on all return paths in this function")
				continue
			}
			switch pp := parents[p].(type) {
			case *ast.DeferStmt:
				if pp.Call == p {
					continue // defer o.Phase(x)() — the idiomatic form
				}
				pass.Reportf(pc.Pos(), "obs.Run.Phase closure escapes the defer: use `defer o.Phase(...)()`")
			case *ast.ExprStmt:
				pass.Reportf(pc.Pos(), "obs.Run.Phase closure invoked immediately: the phase collapses to zero width — use `defer o.Phase(...)()` or a named end variable")
			default:
				pass.Reportf(pc.Pos(), "obs.Run.Phase closure must be deferred or assigned, not used as a value")
			}
		case *ast.AssignStmt:
			checkAssigned(pass, info, body, parents, pc, p)
		case *ast.DeferStmt:
			// defer o.Phase(x) — defers the start, never emits the end.
			pass.Reportf(pc.Pos(), "defer of obs.Run.Phase defers the phase start and drops the end closure: write `defer o.Phase(...)()`")
		case *ast.ExprStmt:
			pass.Reportf(pc.Pos(), "obs.Run.Phase end closure discarded: the phase starts but never ends")
		default:
			pass.Reportf(pc.Pos(), "obs.Run.Phase closure must be deferred immediately or assigned to a local that is called on every return path")
		}
	}
}

// checkAssigned handles `end := o.Phase(x)`: the end closure must be
// invoked (or deferred) on every path from the assignment to a function
// exit.
func checkAssigned(pass *analysis.Pass, info *types.Info, body *ast.BlockStmt, parents map[ast.Node]ast.Node, pc *ast.CallExpr, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		pass.Reportf(pc.Pos(), "obs.Run.Phase in an unbalanced assignment: assign the end closure to its own variable")
		return
	}
	var lhs ast.Expr
	for i, r := range as.Rhs {
		if analysis.Unparen(r) == ast.Expr(pc) {
			lhs = as.Lhs[i]
		}
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		pass.Reportf(pc.Pos(), "obs.Run.Phase end closure must be assigned to a simple local variable")
		return
	}
	if id.Name == "_" {
		pass.Reportf(pc.Pos(), "obs.Run.Phase end closure assigned to _: the phase starts but never ends")
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	// If the closure variable is ever used outside a direct call (passed
	// along, reassigned, captured), the analysis cannot track it — treat
	// it as escaping and trust the author (no finding).
	escaped := false
	for ident, o := range info.Uses {
		if o != obj {
			continue
		}
		if call, ok := parents[ident].(*ast.CallExpr); !ok || call.Fun != ast.Expr(ident) {
			escaped = true
			break
		}
	}
	if escaped {
		return
	}

	fl := &flow{pass: pass, info: info, obj: obj, assign: as}
	end, terminated := fl.stmts(body.List, state{})
	if !terminated && end.pending() {
		pass.Reportf(as.Pos(), "obs.Run.Phase end closure %s is not called before the function falls off the end", id.Name)
	}
}

// state tracks one path's phase bookkeeping: armed after the assignment
// executed, called once the end closure ran (or was deferred).
type state struct {
	armed  bool
	called bool
}

// pending reports whether the path still owes an end call.
func (s state) pending() bool { return s.armed && !s.called }

// merge joins two fall-through branch states conservatively: a pending
// branch keeps the merged state pending.
func merge(a, b state) state {
	return state{
		armed:  a.armed || b.armed,
		called: (a.armed || b.armed) && !(a.pending() || b.pending()),
	}
}

// flow is a structured-control-flow walker: no CFG, just the syntax tree,
// which is exact for the straight-line and if/for shapes the engines use
// and conservative elsewhere (suppressible with //kanon:allow obsphase).
type flow struct {
	pass   *analysis.Pass
	info   *types.Info
	obj    types.Object
	assign ast.Stmt
}

// stmts walks a statement list; terminated reports that every path
// through the list ends the function (return/panic).
func (f *flow) stmts(list []ast.Stmt, s state) (state, bool) {
	for _, st := range list {
		var term bool
		s, term = f.stmt(st, s)
		if term {
			return s, true
		}
	}
	return s, false
}

func (f *flow) stmt(n ast.Stmt, s state) (state, bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if ast.Stmt(n) == f.assign {
			return state{armed: true}, false
		}
	case *ast.ExprStmt:
		if f.isEndCall(n.X) {
			s.called = true
			return s, false
		}
		if isTerminatingCall(f.info, n.X) {
			return s, true
		}
	case *ast.DeferStmt:
		// `defer end()` covers every later exit of the function.
		if f.isEndCall(n.Call) || f.isEndIdent(n.Call.Fun) {
			s.called = true
		}
	case *ast.ReturnStmt:
		if s.pending() {
			f.pass.Reportf(n.Pos(), "return without calling the obs.Run.Phase end closure: the phase never ends on this path")
		}
		return s, true
	case *ast.BlockStmt:
		return f.stmts(n.List, s)
	case *ast.IfStmt:
		if n.Init != nil {
			s, _ = f.stmt(n.Init, s)
		}
		bodyS, bodyTerm := f.stmts(n.Body.List, s)
		elseS, elseTerm := s, false
		if n.Else != nil {
			elseS, elseTerm = f.stmt(n.Else, s)
		}
		switch {
		case bodyTerm && elseTerm:
			return s, true
		case bodyTerm:
			return elseS, false
		case elseTerm:
			return bodyS, false
		default:
			return merge(bodyS, elseS), false
		}
	case *ast.ForStmt:
		if n.Init != nil {
			s, _ = f.stmt(n.Init, s)
		}
		f.stmts(n.Body.List, s) // paths leaving from inside the loop
		if n.Cond == nil && !containsBreak(n.Body) {
			return s, true // for {} without break never falls through
		}
		return s, false // zero iterations possible
	case *ast.RangeStmt:
		f.stmts(n.Body.List, s)
		return s, false
	case *ast.SwitchStmt:
		if n.Init != nil {
			s, _ = f.stmt(n.Init, s)
		}
		f.caseBodies(n.Body, s)
		return s, false
	case *ast.TypeSwitchStmt:
		f.caseBodies(n.Body, s)
		return s, false
	case *ast.SelectStmt:
		f.caseBodies(n.Body, s)
		return s, false
	case *ast.LabeledStmt:
		return f.stmt(n.Stmt, s)
	}
	return s, false
}

// caseBodies checks paths inside switch/select clauses; the after-state
// stays conservative (clauses may not run).
func (f *flow) caseBodies(body *ast.BlockStmt, s state) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			f.stmts(c.Body, s)
		case *ast.CommClause:
			f.stmts(c.Body, s)
		}
	}
}

// isEndCall reports whether e is a direct call of the end closure.
func (f *flow) isEndCall(e ast.Expr) bool {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	return ok && f.isEndIdent(call.Fun)
}

// isEndIdent reports whether e is the end-closure variable itself.
func (f *flow) isEndIdent(e ast.Expr) bool {
	id, ok := analysis.Unparen(e).(*ast.Ident)
	return ok && f.info.Uses[id] == f.obj
}

// containsBreak reports whether body has a break for the enclosing loop
// (unlabeled, not inside a nested loop/switch/select).
func containsBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BranchStmt:
			if n.Tok.String() == "break" {
				found = true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			return false // break inside binds to the inner statement
		}
		return !found
	})
	return found
}

// isTerminatingCall recognizes calls that never return: panic, os.Exit,
// runtime.Goexit and the log.Fatal family.
func isTerminatingCall(info *types.Info, e ast.Expr) bool {
	call, ok := analysis.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && info.Uses[id] == nil {
		return true // builtin panic
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln"
	}
	return false
}

// checkRawEventLit flags obs.Event literals with a phase-bracket kind.
func checkRawEventLit(pass *analysis.Pass, info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != ObsPath || named.Obj().Name() != "Event" {
		return
	}
	var kindExpr ast.Expr
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Kind" {
				kindExpr = kv.Value
			}
			continue
		}
		if i == 0 {
			kindExpr = el // positional: Kind is the first field
		}
	}
	if kindExpr != nil && isPhaseKind(info, kindExpr) {
		pass.Reportf(lit.Pos(), "obs.Event literal with a phase-bracket kind: brackets must be emitted by obs.Run.Phase")
	}
}

// isPhaseKind reports whether e is a constant obs.Kind equal to
// KindPhaseStart or KindPhaseEnd, resolving the bracket values from the
// obs package itself so reordering the Kind enum cannot desynchronize
// the check.
func isPhaseKind(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != ObsPath || obj.Name() != "Kind" {
		return false
	}
	scope := obj.Pkg().Scope()
	for _, name := range []string{"KindPhaseStart", "KindPhaseEnd"} {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && constant.Compare(tv.Value, token.EQL, c.Val()) {
			return true
		}
	}
	return false
}
