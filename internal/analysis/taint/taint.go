// Package taint is the whole-program data-flow layer of the kanonlint
// framework (DESIGN.md §16): a call-graph builder plus a fixpoint engine
// computing per-function taint summaries over the go/types-resolved ASTs
// that internal/analysis loads. The leakcheck analyzer instantiates it
// with record-value sources and diagnostic sinks; constraintpure reuses
// the function index and call edges for purity reachability.
//
// # Model
//
// Taint is a small monotone lattice per value: a bitmask recording
// whether the value derives from a declared source ("intrinsic") and
// which of the enclosing function's parameters flow into it. Summaries
// map those masks across calls:
//
//   - Results[i]: the mask of the i-th result (intrinsic when the body
//     reads a source; param bits when parameters flow through);
//   - ParamSinks[p]: the sink labels a value passed as parameter p
//     eventually reaches, possibly through further calls;
//   - ParamFields[p]: the struct fields parameter p is stored into.
//
// The engine iterates all function bodies to a global fixpoint (the
// lattice is finite and all transfer functions are monotone, so the least
// fixpoint is unique — which is also why summaries are independent of
// package load order; FuzzTaintSummaryDeterminism pins that). A final
// reporting pass walks every body once more with converged summaries and
// emits a finding wherever an intrinsically tainted value meets a sink.
//
// # Field sensitivity
//
// Struct values never carry a mask themselves; their fields do, through a
// global field-taint relation keyed by (package, type, field). Storing a
// source-derived value into a field taints every read of that field,
// program-wide — coarse, but sound for the store-then-format chains this
// engine exists to catch (a panic payload stored in par.TaskPanic.Value,
// then rendered into an error), and precise enough that reading a *clean*
// field of a struct whose sibling field is tainted stays clean. Declared clean fields (the sanitizer set's "schema
// names") never become tainted.
//
// # Approximations
//
// The engine is deliberately modest, and its blind spots are documented
// rather than patched:
//
//   - numeric and boolean scalars are never tainted: row/column indices,
//     interned value ids and counts are the sanctioned positional
//     vocabulary of diagnostics (DESIGN.md §16), so taint tracks strings,
//     byte slices, interfaces and error chains only;
//   - functions without bodies in the module (stdlib, interface methods,
//     func values) propagate argument taint to their non-error results;
//     error results are assumed content-free (a real exception, strconv's
//     NumError, is caught at the formatting site when the message is
//     built in-module);
//   - map taint tracks stored values, not keys, and function literals are
//     analyzed inline in their enclosing function (shared environment),
//     not as first-class summaries.
package taint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"kanon/internal/analysis"
)

// Mask is the taint lattice element of one value: bit 0 marks a value
// derived from a declared source, bit p+1 marks flow from parameter p
// (receiver first). Parameters beyond 62 share the last bit.
type Mask uint64

// Intrinsic is the source-derived bit.
const Intrinsic Mask = 1

// ParamBit returns the mask bit of parameter p.
func ParamBit(p int) Mask {
	if p > 61 {
		p = 61
	}
	return 1 << (uint(p) + 1)
}

// params extracts the parameter indices set in m, in ascending order.
func (m Mask) params() []int {
	var out []int
	for p := 0; p <= 61; p++ {
		if m&ParamBit(p) != 0 {
			out = append(out, p)
		}
	}
	return out
}

// FieldRef names one struct field, package-path qualified so the same
// field is one key no matter which package's type-check produced the
// object (the loader checks each package separately against export data).
type FieldRef struct {
	PkgPath, TypeName, FieldName string
}

// String renders pkg.Type.Field.
func (f FieldRef) String() string {
	return f.PkgPath + "." + f.TypeName + "." + f.FieldName
}

// Key canonicalizes a function or method to its package-path-qualified
// name ("kanon/internal/table.(*Attribute).ValueID"). Object identity is
// useless across packages — dataio's view of table.ValueID is a distinct
// *types.Func from table's own — so every cross-package map in the engine
// is keyed by this string.
func Key(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := false
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), true
		}
		name := "?"
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		if ptr {
			return pkg + ".(*" + name + ")." + fn.Name()
		}
		return pkg + ".(" + name + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// FuncInfo is one module function: its declaration, owning package and
// static callees (deterministically ordered, deduplicated keys).
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package
	// Callees lists the keys of statically resolved calls in the body,
	// sorted; used by constraintpure for reachability.
	Callees []string
}

// Index is the whole-program function index: every declared function and
// method with a body, keyed canonically and ordered deterministically.
type Index struct {
	Prog  *analysis.Program
	Funcs map[string]*FuncInfo
	// Order is the deterministic iteration order (sorted keys).
	Order []string
}

// NewIndex builds the function index and call edges over the program.
func NewIndex(prog *analysis.Program) *Index {
	ix := &Index{Prog: prog, Funcs: make(map[string]*FuncInfo)}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				seen := map[string]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := analysis.CalleeFunc(pkg.TypesInfo, call); callee != nil {
						if k := Key(callee); !seen[k] {
							seen[k] = true
							fi.Callees = append(fi.Callees, k)
						}
					}
					return true
				})
				sort.Strings(fi.Callees)
				ix.Funcs[Key(fn)] = fi
			}
		}
	}
	ix.Order = make([]string, 0, len(ix.Funcs))
	for k := range ix.Funcs {
		ix.Order = append(ix.Order, k)
	}
	sort.Strings(ix.Order)
	return ix
}

// Config declares the sources, sanitizers and sinks of one analysis.
type Config struct {
	// SourceFields are the fields whose reads are tainted everywhere
	// (e.g. table.Attribute.Values).
	SourceFields []FieldRef
	// CleanFields never become tainted, whatever is stored into them —
	// the declared sanitizer set's structural half (schema names).
	CleanFields []FieldRef
	// SourceCall marks calls whose results are tainted (csv reads).
	SourceCall func(fn *types.Func) bool
	// TaintRecover taints the result of the recover builtin (contained
	// panic payloads).
	TaintRecover bool
	// Sanitizer marks calls that launder taint: their results are clean
	// regardless of arguments (the redact package).
	Sanitizer func(fn *types.Func) bool
	// Sink classifies a call as a diagnostic sink, returning its label.
	// Every tainted argument (receiver included) is a finding.
	Sink func(fn *types.Func) (string, bool)
	// TypeSink classifies encode-style sinks (json.Marshal): an argument
	// whose type transitively contains a tainted field is a finding even
	// when the value expression itself carries no mask.
	TypeSink func(fn *types.Func) (string, bool)
	// FieldSink flags stores of tainted values into specific fields
	// (obs.Event payloads).
	FieldSink func(FieldRef) (string, bool)
	// PanicSink flags panic(tainted).
	PanicSink bool
	// SkipSinksIn suppresses sink reporting (not summary computation) for
	// a package — entry points that display the release by design.
	SkipSinksIn func(pkgPath string) bool
}

// Summary is one function's converged transfer behaviour.
type Summary struct {
	// Results holds one mask per result value.
	Results []Mask
	// ParamSinks maps parameter index → sink labels reached.
	ParamSinks []map[string]bool
	// ParamFields maps parameter index → fields stored into.
	ParamFields []map[FieldRef]bool
	// nparams caches the parameter count (receiver included).
	nparams int
}

func newSummary(nparams, nresults int) *Summary {
	s := &Summary{
		Results:     make([]Mask, nresults),
		ParamSinks:  make([]map[string]bool, nparams),
		ParamFields: make([]map[FieldRef]bool, nparams),
		nparams:     nparams,
	}
	for i := range s.ParamSinks {
		s.ParamSinks[i] = map[string]bool{}
		s.ParamFields[i] = map[FieldRef]bool{}
	}
	return s
}

// equal reports structural equality (fixpoint termination test).
func (s *Summary) equal(o *Summary) bool {
	if o == nil || len(s.Results) != len(o.Results) || s.nparams != o.nparams {
		return false
	}
	for i := range s.Results {
		if s.Results[i] != o.Results[i] {
			return false
		}
	}
	for p := 0; p < s.nparams; p++ {
		if len(s.ParamSinks[p]) != len(o.ParamSinks[p]) || len(s.ParamFields[p]) != len(o.ParamFields[p]) {
			return false
		}
		for label := range s.ParamSinks[p] {
			if !o.ParamSinks[p][label] {
				return false
			}
		}
		for ref := range s.ParamFields[p] {
			if !o.ParamFields[p][ref] {
				return false
			}
		}
	}
	return true
}

// Finding is one sink hit of the reporting pass.
type Finding struct {
	Pos token.Pos
	// Position is Pos resolved, for deterministic ordering.
	Position token.Position
	Message  string
}

// Engine runs the fixpoint and reporting passes.
type Engine struct {
	ix  *Index
	cfg Config

	summaries  map[string]*Summary
	fieldTaint map[FieldRef]bool
	clean      map[FieldRef]bool
	changed    bool
}

// NewEngine prepares an engine over the index.
func NewEngine(ix *Index, cfg Config) *Engine {
	e := &Engine{
		ix:         ix,
		cfg:        cfg,
		summaries:  make(map[string]*Summary),
		fieldTaint: make(map[FieldRef]bool),
		clean:      make(map[FieldRef]bool),
	}
	for _, f := range cfg.SourceFields {
		e.fieldTaint[f] = true
	}
	for _, f := range cfg.CleanFields {
		e.clean[f] = true
	}
	return e
}

// maxRounds bounds the global fixpoint; the lattice height is small (mask
// bits × functions × fields), so convergence takes a handful of rounds —
// the cap only guards against an engine bug looping forever.
const maxRounds = 64

// Solve iterates all function bodies to the global summary/field-taint
// fixpoint.
func (e *Engine) Solve() {
	for round := 0; round < maxRounds; round++ {
		e.changed = false
		for _, key := range e.ix.Order {
			fi := e.ix.Funcs[key]
			s := e.analyze(fi, nil)
			if !s.equal(e.summaries[key]) {
				e.summaries[key] = s
				e.changed = true
			}
		}
		if !e.changed {
			return
		}
	}
}

// Report runs the final pass, returning every sink hit sorted by position
// then message. Call after Solve.
func (e *Engine) Report() []Finding {
	seen := map[string]bool{}
	var out []Finding
	for _, key := range e.ix.Order {
		fi := e.ix.Funcs[key]
		if e.cfg.SkipSinksIn != nil && e.cfg.SkipSinksIn(fi.Pkg.PkgPath) {
			continue
		}
		e.analyze(fi, func(pos token.Pos, msg string) {
			position := e.ix.Prog.Fset.Position(pos)
			dedup := fmt.Sprintf("%s:%d:%d:%s", position.Filename, position.Line, position.Column, msg)
			if seen[dedup] {
				return
			}
			seen[dedup] = true
			out = append(out, Finding{Pos: pos, Position: position, Message: msg})
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// Summary returns the converged summary for a canonical function key.
func (e *Engine) Summary(key string) *Summary { return e.summaries[key] }

// RenderSummaries renders every non-trivial summary and the field-taint
// relation as sorted, stable text — the oracle of
// FuzzTaintSummaryDeterminism.
func (e *Engine) RenderSummaries() string {
	var b strings.Builder
	for _, key := range e.ix.Order {
		s := e.summaries[key]
		if s == nil {
			continue
		}
		line := renderSummary(key, s)
		if line != "" {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	fields := make([]string, 0, len(e.fieldTaint))
	for ref := range e.fieldTaint {
		fields = append(fields, ref.String())
	}
	sort.Strings(fields)
	for _, f := range fields {
		b.WriteString("field " + f + "\n")
	}
	return b.String()
}

// renderSummary renders one summary line, or "" when the summary carries
// no taint behaviour at all.
func renderSummary(key string, s *Summary) string {
	var parts []string
	for i, m := range s.Results {
		if m != 0 {
			parts = append(parts, fmt.Sprintf("r%d=%#x", i, uint64(m)))
		}
	}
	for p := 0; p < s.nparams; p++ {
		if len(s.ParamSinks[p]) > 0 {
			labels := make([]string, 0, len(s.ParamSinks[p]))
			for l := range s.ParamSinks[p] {
				labels = append(labels, l)
			}
			sort.Strings(labels)
			parts = append(parts, fmt.Sprintf("p%d->sink{%s}", p, strings.Join(labels, ";")))
		}
		if len(s.ParamFields[p]) > 0 {
			refs := make([]string, 0, len(s.ParamFields[p]))
			for r := range s.ParamFields[p] {
				refs = append(refs, r.String())
			}
			sort.Strings(refs)
			parts = append(parts, fmt.Sprintf("p%d->field{%s}", p, strings.Join(refs, ";")))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return key + ": " + strings.Join(parts, " ")
}

// TypeHasTaintedField reports whether t (after pointer/slice stripping)
// transitively contains a tainted struct field — the TypeSink test.
func (e *Engine) TypeHasTaintedField(t types.Type) bool {
	return e.typeTainted(t, map[types.Type]bool{})
}

func (e *Engine) typeTainted(t types.Type, visiting map[types.Type]bool) bool {
	if t == nil || visiting[t] {
		return false
	}
	visiting[t] = true
	switch u := t.(type) {
	case *types.Pointer:
		return e.typeTainted(u.Elem(), visiting)
	case *types.Slice:
		return e.typeTainted(u.Elem(), visiting)
	case *types.Array:
		return e.typeTainted(u.Elem(), visiting)
	case *types.Map:
		return e.typeTainted(u.Elem(), visiting)
	case *types.Named:
		name := u.Obj().Name()
		pkg := ""
		if u.Obj().Pkg() != nil {
			pkg = u.Obj().Pkg().Path()
		}
		st, ok := u.Underlying().(*types.Struct)
		if !ok {
			return e.typeTainted(u.Underlying(), visiting)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if e.fieldTaint[FieldRef{PkgPath: pkg, TypeName: name, FieldName: f.Name()}] {
				return true
			}
			if e.typeTainted(f.Type(), visiting) {
				return true
			}
		}
	}
	return false
}

// taintable reports whether values of type t can carry a mask at all:
// numeric and boolean scalars are the sanctioned positional vocabulary
// and never taint.
func taintable(t types.Type) bool {
	if t == nil {
		return true // be conservative when type info is missing
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch {
		case b.Info()&types.IsBoolean != 0,
			b.Info()&types.IsNumeric != 0:
			return false
		}
	}
	return true
}

// fnScope is the per-function analysis state: the flow-insensitive taint
// environment plus the summary being built.
type fnScope struct {
	e      *Engine
	fi     *FuncInfo
	info   *types.Info
	env    map[types.Object]Mask
	sum    *Summary
	report func(pos token.Pos, msg string)
	// named result objects in declaration order (nil entries for
	// anonymous results).
	namedResults []types.Object
	dirty        bool
}

// analyze runs the flow-insensitive intra-procedural analysis of one
// function: repeated monotone passes over the body until the environment
// and summary stop changing. With report non-nil, sink hits are emitted
// (the final pass); during Solve the hits only feed ParamSinks.
func (e *Engine) analyze(fi *FuncInfo, report func(pos token.Pos, msg string)) *Summary {
	sig := fi.Fn.Type().(*types.Signature)
	nparams := sig.Params().Len()
	if sig.Recv() != nil {
		nparams++
	}
	sc := &fnScope{
		e:      e,
		fi:     fi,
		info:   fi.Pkg.TypesInfo,
		env:    make(map[types.Object]Mask),
		sum:    newSummary(nparams, sig.Results().Len()),
		report: report,
	}
	// Seed parameters: receiver is parameter 0.
	p := 0
	if recv := fi.Decl.Recv; recv != nil {
		for _, field := range recv.List {
			for _, name := range field.Names {
				if obj := sc.info.Defs[name]; obj != nil && taintable(obj.Type()) {
					sc.env[obj] = ParamBit(p)
				}
			}
		}
		p = 1
	}
	if fi.Decl.Type.Params != nil {
		for _, field := range fi.Decl.Type.Params.List {
			if len(field.Names) == 0 {
				p++
				continue
			}
			for _, name := range field.Names {
				if obj := sc.info.Defs[name]; obj != nil && taintable(obj.Type()) {
					sc.env[obj] = ParamBit(p)
				}
				p++
			}
		}
	}
	// Named results participate in the environment (deferred closures
	// assign them), and fold into Results at the end of each pass.
	if fi.Decl.Type.Results != nil {
		for _, field := range fi.Decl.Type.Results.List {
			if len(field.Names) == 0 {
				sc.namedResults = append(sc.namedResults, nil)
				continue
			}
			for _, name := range field.Names {
				sc.namedResults = append(sc.namedResults, sc.info.Defs[name])
			}
		}
	}

	// The per-function pass cap mirrors maxRounds: local chains are short.
	for pass := 0; pass < maxRounds; pass++ {
		sc.dirty = false
		sc.walkBody(fi.Decl.Body)
		for i, obj := range sc.namedResults {
			if obj != nil && i < len(sc.sum.Results) {
				sc.mergeResult(i, sc.env[obj])
			}
		}
		if !sc.dirty {
			break
		}
	}
	return sc.sum
}

// mergeEnv grows obj's mask, tracking convergence.
func (sc *fnScope) mergeEnv(obj types.Object, m Mask) {
	if obj == nil || m == 0 || !taintable(obj.Type()) {
		return
	}
	if sc.env[obj]|m != sc.env[obj] {
		sc.env[obj] |= m
		sc.dirty = true
	}
}

// mergeResult grows result i's mask.
func (sc *fnScope) mergeResult(i int, m Mask) {
	if m == 0 || i >= len(sc.sum.Results) {
		return
	}
	if sc.sum.Results[i]|m != sc.sum.Results[i] {
		sc.sum.Results[i] |= m
		sc.dirty = true
	}
}

// mergeParamSink records that parameter p reaches a sink.
func (sc *fnScope) mergeParamSink(p int, label string) {
	if p >= len(sc.sum.ParamSinks) {
		return
	}
	if !sc.sum.ParamSinks[p][label] {
		sc.sum.ParamSinks[p][label] = true
		sc.dirty = true
	}
}

// mergeParamField records that parameter p is stored into a field.
func (sc *fnScope) mergeParamField(p int, ref FieldRef) {
	if p >= len(sc.sum.ParamFields) || sc.e.clean[ref] {
		return
	}
	if !sc.sum.ParamFields[p][ref] {
		sc.sum.ParamFields[p][ref] = true
		sc.dirty = true
	}
}

// taintField taints a field globally.
func (sc *fnScope) taintField(ref FieldRef) {
	if sc.e.clean[ref] || sc.e.fieldTaint[ref] {
		return
	}
	sc.e.fieldTaint[ref] = true
	sc.e.changed = true
	sc.dirty = true
}

// walkBody drives one monotone pass over a body, function literals
// included (they share the enclosing environment).
func (sc *fnScope) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			sc.assign(n)
		case *ast.RangeStmt:
			m := sc.exprMask(n.X)
			if n.Key != nil {
				if id, ok := n.Key.(*ast.Ident); ok {
					sc.mergeEnv(sc.info.Defs[id], m)
				}
			}
			if n.Value != nil {
				if id, ok := n.Value.(*ast.Ident); ok {
					sc.mergeEnv(sc.info.Defs[id], m)
				}
			}
		case *ast.ReturnStmt:
			sc.returnStmt(n)
		case *ast.CallExpr:
			sc.call(n)
		case *ast.CompositeLit:
			sc.compositeLit(n)
		}
		return true
	})
}

// assign applies one assignment's flows: identifier targets grow the
// environment, field targets feed the global field-taint relation (and
// field sinks), map/slice element targets taint the container object.
func (sc *fnScope) assign(n *ast.AssignStmt) {
	masks := sc.rhsMasks(n)
	for i, lhs := range n.Lhs {
		if i >= len(masks) {
			break
		}
		sc.assignTo(lhs, masks[i])
	}
}

// rhsMasks resolves the right-hand side value masks, expanding
// multi-result calls and two-value map/type-assert forms.
func (sc *fnScope) rhsMasks(n *ast.AssignStmt) []Mask {
	if len(n.Lhs) == len(n.Rhs) {
		out := make([]Mask, len(n.Rhs))
		for i, rhs := range n.Rhs {
			out[i] = sc.exprMask(rhs)
		}
		return out
	}
	if len(n.Rhs) != 1 {
		return nil
	}
	switch rhs := analysis.Unparen(n.Rhs[0]).(type) {
	case *ast.CallExpr:
		return sc.callResultMasks(rhs, len(n.Lhs))
	case *ast.TypeAssertExpr, *ast.IndexExpr, *ast.UnaryExpr:
		// v, ok := x.(T) / m[k] / <-ch: the value keeps the operand's
		// mask, ok is boolean (never tainted).
		m := sc.exprMask(n.Rhs[0])
		out := make([]Mask, len(n.Lhs))
		out[0] = m
		return out
	}
	return nil
}

// assignTo routes one mask into an assignment target.
func (sc *fnScope) assignTo(lhs ast.Expr, m Mask) {
	switch lhs := analysis.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := sc.info.Defs[lhs]
		if obj == nil {
			obj = sc.info.Uses[lhs]
		}
		sc.mergeEnv(obj, m)
	case *ast.SelectorExpr:
		if ref, ok := sc.fieldRefOf(lhs); ok {
			sc.fieldStore(lhs.Pos(), ref, m)
		}
	case *ast.IndexExpr:
		// m[k] = v / s[i] = v: taint the container object.
		if id, ok := analysis.Unparen(lhs.X).(*ast.Ident); ok {
			obj := sc.info.Uses[id]
			if obj == nil {
				obj = sc.info.Defs[id]
			}
			if obj != nil && m != 0 {
				if sc.env[obj]|m != sc.env[obj] {
					sc.env[obj] |= m
					sc.dirty = true
				}
			}
		}
	case *ast.StarExpr:
		// *p = v: taint what p refers to when p is a plain identifier.
		if id, ok := analysis.Unparen(lhs.X).(*ast.Ident); ok {
			sc.mergeEnv(sc.info.Uses[id], m)
		}
	}
}

// fieldStore handles a store into a struct field: source-derived values
// taint the field globally, parameter-derived values enter the summary,
// and declared field sinks report.
func (sc *fnScope) fieldStore(pos token.Pos, ref FieldRef, m Mask) {
	if m == 0 {
		return
	}
	if sc.e.cfg.FieldSink != nil {
		if label, ok := sc.e.cfg.FieldSink(ref); ok {
			sc.sinkHit(pos, m, label)
		}
	}
	if m&Intrinsic != 0 {
		sc.taintField(ref)
	}
	for _, p := range m.params() {
		sc.mergeParamField(p, ref)
	}
}

// returnStmt folds explicit return values into the summary.
func (sc *fnScope) returnStmt(n *ast.ReturnStmt) {
	if len(n.Results) == 0 {
		return // named results are folded at end of pass
	}
	if len(n.Results) == 1 && len(sc.sum.Results) > 1 {
		if call, ok := analysis.Unparen(n.Results[0]).(*ast.CallExpr); ok {
			for i, m := range sc.callResultMasks(call, len(sc.sum.Results)) {
				sc.mergeResult(i, m)
			}
			return
		}
	}
	for i, r := range n.Results {
		sc.mergeResult(i, sc.exprMask(r))
	}
}

// compositeLit feeds struct-literal field stores into the field-taint
// relation and field sinks.
func (sc *fnScope) compositeLit(n *ast.CompositeLit) {
	tv, ok := sc.info.Types[n]
	if !ok {
		return
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	pkg := ""
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Path()
	}
	for i, elt := range n.Elts {
		var fieldName string
		var value ast.Expr
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			key, isIdent := kv.Key.(*ast.Ident)
			if !isIdent {
				continue
			}
			fieldName, value = key.Name, kv.Value
		} else {
			if i >= st.NumFields() {
				continue
			}
			fieldName, value = st.Field(i).Name(), elt
		}
		m := sc.exprMask(value)
		if m == 0 {
			continue
		}
		sc.fieldStore(value.Pos(), FieldRef{PkgPath: pkg, TypeName: named.Obj().Name(), FieldName: fieldName}, m)
	}
}

// sinkHit reports intrinsic taint reaching a sink and records
// parameter-derived taint into the summary.
func (sc *fnScope) sinkHit(pos token.Pos, m Mask, label string) {
	if m&Intrinsic != 0 && sc.report != nil {
		sc.report(pos, "record value flows into "+label)
	}
	for _, p := range m.params() {
		sc.mergeParamSink(p, label)
	}
}

// call handles one call expression: builtin semantics, sink detection,
// and summary-mediated propagation into callee sinks and fields.
func (sc *fnScope) call(n *ast.CallExpr) {
	// panic(x) and other builtins.
	if id, ok := analysis.Unparen(n.Fun).(*ast.Ident); ok {
		if _, isBuiltin := sc.info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "panic" && sc.e.cfg.PanicSink && len(n.Args) == 1 {
				sc.sinkHit(n.Pos(), sc.exprMask(n.Args[0]), "panic")
			}
			return
		}
	}
	fn := analysis.CalleeFunc(sc.info, n)
	if fn == nil {
		return
	}
	if sc.e.cfg.Sanitizer != nil && sc.e.cfg.Sanitizer(fn) {
		return
	}
	recvMask, argMasks := sc.callInputMasks(fn, n)
	if sc.e.cfg.Sink != nil {
		if label, ok := sc.e.cfg.Sink(fn); ok {
			sc.sinkHit(n.Pos(), recvMask, label)
			for _, m := range argMasks {
				sc.sinkHit(n.Pos(), m, label)
			}
			return
		}
	}
	if sc.e.cfg.TypeSink != nil {
		if label, ok := sc.e.cfg.TypeSink(fn); ok {
			for i, arg := range n.Args {
				if tv, tvOK := sc.info.Types[arg]; tvOK && sc.e.TypeHasTaintedField(tv.Type) {
					if sc.report != nil {
						sc.report(arg.Pos(), fmt.Sprintf("value of type %s carries tainted fields into %s", tv.Type, label))
					}
				}
				sc.sinkHit(n.Pos(), argMasks[i], label)
			}
			return
		}
	}
	// Summary-mediated propagation into a module function.
	if callee := sc.e.summaries[Key(fn)]; callee != nil {
		inputs := sc.calleeInputs(fn, recvMask, argMasks, callee.nparams)
		for p, m := range inputs {
			if m == 0 {
				continue
			}
			for label := range callee.ParamSinks[p] {
				sc.sinkHit(n.Pos(), m, label)
			}
			for ref := range callee.ParamFields[p] {
				sc.fieldStore(n.Pos(), ref, m)
			}
		}
		return
	}
	// Bodiless callee (stdlib, interface method, func value): taint the
	// receiver when it is an addressable local — string builders and
	// hashes accumulate state through methods the engine cannot see.
	union := recvMask
	for _, m := range argMasks {
		union |= m
	}
	if union != 0 {
		if sel, ok := analysis.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if id, isIdent := analysis.Unparen(sel.X).(*ast.Ident); isIdent {
				if obj := sc.info.Uses[id]; obj != nil {
					if _, isVar := obj.(*types.Var); isVar {
						sc.mergeEnv(obj, union)
					}
				}
			}
		}
	}
}

// callInputMasks computes the receiver and argument masks of a call.
func (sc *fnScope) callInputMasks(fn *types.Func, n *ast.CallExpr) (Mask, []Mask) {
	var recvMask Mask
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, isSel := analysis.Unparen(n.Fun).(*ast.SelectorExpr); isSel {
			recvMask = sc.exprMask(sel.X)
		}
	}
	argMasks := make([]Mask, len(n.Args))
	for i, arg := range n.Args {
		argMasks[i] = sc.exprMask(arg)
	}
	return recvMask, argMasks
}

// calleeInputs maps call-site masks onto the callee's parameter slots
// (receiver first, variadic collapsed onto the last slot).
func (sc *fnScope) calleeInputs(fn *types.Func, recvMask Mask, argMasks []Mask, nparams int) []Mask {
	inputs := make([]Mask, nparams)
	base := 0
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if nparams > 0 {
			inputs[0] = recvMask
		}
		base = 1
	}
	for i, m := range argMasks {
		slot := base + i
		if slot >= nparams {
			slot = nparams - 1
		}
		if slot >= 0 {
			inputs[slot] |= m
		}
	}
	return inputs
}

// callResultMasks computes per-result masks of a call used in a
// multi-value context.
func (sc *fnScope) callResultMasks(n *ast.CallExpr, nresults int) []Mask {
	out := make([]Mask, nresults)
	m := sc.callMask(n, out)
	if len(out) > 0 && m != 0 {
		// Single-mask fallbacks spread across non-error results.
		for i := range out {
			out[i] |= m
		}
	}
	sc.filterResultTypes(n, out)
	return out
}

// filterResultTypes zeroes masks of untaintable and error-typed results.
func (sc *fnScope) filterResultTypes(n *ast.CallExpr, out []Mask) {
	fn := analysis.CalleeFunc(sc.info, n)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	inModule := sc.e.summaries[Key(fn)] != nil
	for i := 0; i < sig.Results().Len() && i < len(out); i++ {
		t := sig.Results().At(i).Type()
		if !taintable(t) {
			out[i] = 0
		}
		// Bodiless callees are assumed to keep content out of their error
		// results; module functions carry precise summaries instead.
		if !inModule && types.Implements(t, errorInterface) {
			out[i] = 0
		}
	}
}

// errorInterface is the universe error type.
var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// callMask resolves the mask of a call in single-value context. When
// results is non-nil (multi-value context) per-result masks are written
// there and 0 is returned for module callees.
func (sc *fnScope) callMask(n *ast.CallExpr, results []Mask) Mask {
	// Conversions: T(x) keeps x's mask (filtered by T's taintability).
	if tv, ok := sc.info.Types[analysis.Unparen(n.Fun)]; ok && tv.IsType() {
		if len(n.Args) == 1 {
			m := sc.exprMask(n.Args[0])
			if !taintable(tv.Type) {
				return 0
			}
			return m
		}
		return 0
	}
	if id, ok := analysis.Unparen(n.Fun).(*ast.Ident); ok {
		if _, isBuiltin := sc.info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append":
				var m Mask
				for _, a := range n.Args {
					m |= sc.exprMask(a)
				}
				return m
			case "recover":
				if sc.e.cfg.TaintRecover {
					return Intrinsic
				}
				return 0
			default: // len, cap, make, new, copy, min, max, delete, ...
				return 0
			}
		}
	}
	fn := analysis.CalleeFunc(sc.info, n)
	if fn == nil {
		// Func-value call: propagate the union of argument masks.
		var m Mask
		for _, a := range n.Args {
			m |= sc.exprMask(a)
		}
		return m
	}
	if sc.e.cfg.Sanitizer != nil && sc.e.cfg.Sanitizer(fn) {
		return 0
	}
	if sc.e.cfg.SourceCall != nil && sc.e.cfg.SourceCall(fn) {
		if results != nil {
			for i := range results {
				results[i] = Intrinsic
			}
			sc.filterResultTypes(n, results)
			return 0
		}
		return Intrinsic
	}
	if sc.e.cfg.Sink != nil {
		if _, isSink := sc.e.cfg.Sink(fn); isSink {
			// Sink results are reported at the site, never re-propagated:
			// one finding per leak, at its origin.
			return 0
		}
	}
	recvMask, argMasks := sc.callInputMasks(fn, n)
	if callee := sc.e.summaries[Key(fn)]; callee != nil {
		inputs := sc.calleeInputs(fn, recvMask, argMasks, callee.nparams)
		resolve := func(ri int) Mask {
			if ri >= len(callee.Results) {
				return 0
			}
			m := callee.Results[ri] & Intrinsic
			for _, p := range callee.Results[ri].params() {
				if p < len(inputs) {
					m |= inputs[p]
				}
			}
			return m
		}
		if results != nil {
			for i := range results {
				results[i] = resolve(i)
			}
			return 0
		}
		return resolve(0)
	}
	// Bodiless callee: union of inputs, filtered by result types at the
	// use site (single-value context means result 0).
	m := recvMask
	for _, am := range argMasks {
		m |= am
	}
	if m == 0 {
		return 0
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() > 0 {
		t := sig.Results().At(0).Type()
		if results == nil && (!taintable(t) || types.Implements(t, errorInterface)) {
			return 0
		}
	}
	return m
}

// exprMask computes the mask of one expression under the current
// environment.
func (sc *fnScope) exprMask(e ast.Expr) Mask {
	if e == nil {
		return 0
	}
	var m Mask
	switch e := e.(type) {
	case *ast.ParenExpr:
		m = sc.exprMask(e.X)
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.Ident:
		obj := sc.info.Uses[e]
		if obj == nil {
			obj = sc.info.Defs[e]
		}
		m = sc.env[obj]
	case *ast.SelectorExpr:
		if ref, ok := sc.fieldRefOf(e); ok {
			if sc.e.fieldTaint[ref] {
				m = Intrinsic
			}
		} else if sel, selOK := sc.info.Selections[e]; selOK && sel.Kind() == types.FieldVal {
			// Field of an anonymous struct: fall back to the base mask.
			m = sc.exprMask(e.X)
		}
		// Qualified identifiers (pkg.Var, pkg.Func) and method values
		// carry no mask.
	case *ast.IndexExpr:
		m = sc.exprMask(e.X)
	case *ast.SliceExpr:
		m = sc.exprMask(e.X)
	case *ast.StarExpr:
		m = sc.exprMask(e.X)
	case *ast.UnaryExpr:
		m = sc.exprMask(e.X)
	case *ast.BinaryExpr:
		m = sc.exprMask(e.X) | sc.exprMask(e.Y)
	case *ast.TypeAssertExpr:
		m = sc.exprMask(e.X)
	case *ast.CallExpr:
		m = sc.callMask(e, nil)
	case *ast.CompositeLit:
		// Struct literals carry their taint in fields; slice/map literals
		// carry the union of their (possibly keyed) elements.
		if tv, ok := sc.info.Types[e]; ok {
			if _, isStruct := tv.Type.Underlying().(*types.Struct); !isStruct {
				for _, elt := range e.Elts {
					if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
						m |= sc.exprMask(kv.Value)
					} else {
						m |= sc.exprMask(elt)
					}
				}
			}
		}
	}
	if m != 0 {
		if tv, ok := sc.info.Types[e]; ok && !taintable(tv.Type) {
			return 0
		}
	}
	return m
}

// fieldRefOf resolves a selector to a named-struct field reference.
func (sc *fnScope) fieldRefOf(sel *ast.SelectorExpr) (FieldRef, bool) {
	s, ok := sc.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return FieldRef{}, false
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return FieldRef{}, false
	}
	pkg := ""
	if named.Obj().Pkg() != nil {
		pkg = named.Obj().Pkg().Path()
	}
	return FieldRef{PkgPath: pkg, TypeName: named.Obj().Name(), FieldName: sel.Sel.Name}, true
}
