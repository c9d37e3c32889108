// Package detflow is a determinism taint analysis for simulator
// packages: values whose *order or content* depends on a
// nondeterministic construct — map iteration, select arm choice,
// sync.Map access, wall-clock time, unseeded math/rand — must not flow
// into reproducibility sinks: checkpoint.Codec primitives, telemetry
// mutators, or JSON manifests. detmap and notime ban the constructs at
// the point of use; detflow closes the laundering gap where the
// nondeterministic value is stashed in a local, passed through a helper,
// or accumulated into a slice before reaching the sink.
//
// The analysis is a forward intraprocedural bitmask taint with
// cross-package facts stitching calls together:
//
//   - bit 63 marks a genuinely nondeterministic value;
//   - bits 0..62 mark "derived from parameter i", so a function that
//     forwards a parameter into a sink exports a SinkParams fact and its
//     callers are checked at the call site;
//   - a function returning a nondeterministic value exports
//     TaintedReturn, so its results are tainted everywhere.
//
// Sorting is the sanctioned laundering: passing a value to sort.* or
// slices.Sort* clears its taint, matching the collect-then-sort idiom
// detmap already blesses. A deliberate exception is written as
// //lint:ignore tcplint/detflow <why>.
package detflow

import (
	"go/ast"
	"go/types"
	"strings"

	"tagprefetch/internal/analysis"
)

// nondet is the taint bit for a genuinely nondeterministic value; lower
// bits track derivation from parameters.
const nondet uint64 = 1 << 63

// SinkParams is a fact on a function: bit i is set when parameter i flows
// into a reproducibility sink (directly or through further SinkParams
// callees).
type SinkParams struct {
	Mask uint64
}

// AFact marks SinkParams as a fact type.
func (*SinkParams) AFact() {}

// TaintedReturn is a fact on a function whose results derive from a
// nondeterministic source.
type TaintedReturn struct{}

// AFact marks TaintedReturn as a fact type.
func (*TaintedReturn) AFact() {}

// Analyzer reports nondeterministically-derived values reaching
// snapshot, telemetry, or manifest sinks.
var Analyzer = &analysis.Analyzer{
	Name: "detflow",
	Doc: "taint analysis: map-iteration/select/sync.Map/time/rand-derived values must not reach " +
		"checkpoint, telemetry, or JSON sinks; sort first or justify with //lint:ignore tcplint/detflow",
	Run:       run,
	FactTypes: []analysis.Fact{new(SinkParams), new(TaintedReturn)},
}

func run(pass *analysis.Pass) error {
	var fns []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fns = append(fns, fd)
			}
		}
	}
	// Fact fixed point: same-package call chains of any depth converge
	// because each round only adds bits.
	for round := 0; round <= len(fns); round++ {
		changed := false
		for _, fd := range fns {
			if newFuncAnalysis(pass, fd).exportFacts() {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fd := range fns {
		newFuncAnalysis(pass, fd).report()
	}
	return nil
}

// taint is a value's provenance: the bitmask plus a human description of
// the first nondeterministic source it passed through.
type taint struct {
	mask uint64
	why  string
}

func (t taint) union(u taint) taint {
	out := taint{mask: t.mask | u.mask, why: t.why}
	if out.why == "" {
		out.why = u.why
	}
	return out
}

func (t taint) hot() bool { return t.mask&nondet != 0 }

// funcAnalysis runs the intraprocedural taint for one declaration.
type funcAnalysis struct {
	pass *analysis.Pass
	decl *ast.FuncDecl
	obj  *types.Func
	env  map[types.Object]taint
}

func newFuncAnalysis(pass *analysis.Pass, fd *ast.FuncDecl) *funcAnalysis {
	fa := &funcAnalysis{
		pass: pass,
		decl: fd,
		env:  make(map[types.Object]taint),
	}
	fa.obj, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if fa.obj != nil {
		sig := fa.obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len() && i < 62; i++ {
			fa.env[sig.Params().At(i)] = taint{mask: 1 << i}
		}
	}
	fa.converge()
	return fa
}

// converge iterates assignment transfer over the body until the
// environment stops changing, so loop-carried taint settles.
func (fa *funcAnalysis) converge() {
	for range 8 {
		before := len(fa.env)
		var grew bool
		ast.Inspect(fa.decl.Body, func(n ast.Node) bool {
			if fa.transfer(n) {
				grew = true
			}
			return true
		})
		if !grew && len(fa.env) == before {
			return
		}
	}
}

// transfer applies one statement's effect to the environment, reporting
// whether any binding gained bits.
func (fa *funcAnalysis) transfer(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return fa.assign(n.Lhs, n.Rhs)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return false
		}
		changed := false
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			if fa.assign(lhs, vs.Values) {
				changed = true
			}
		}
		return changed
	case *ast.RangeStmt:
		return fa.rangeVars(n)
	case *ast.SelectStmt:
		return fa.selectVars(n)
	case *ast.ExprStmt:
		fa.sanitize(n.X)
		return false
	}
	return false
}

// assign moves taint from RHS expressions to LHS objects, handling both
// pairwise and multi-value forms.
func (fa *funcAnalysis) assign(lhs, rhs []ast.Expr) bool {
	changed := false
	bind := func(l ast.Expr, t taint) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			// Writes through selectors/indexes taint the base variable:
			// s.buf[i] = tainted makes s.buf suspect.
			if base := baseIdent(l); base != nil {
				id = base
			} else {
				return
			}
		}
		obj := fa.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = fa.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return
		}
		merged := fa.env[obj].union(t)
		if merged.mask != fa.env[obj].mask {
			fa.env[obj] = merged
			changed = true
		}
	}
	if len(lhs) > 1 && len(rhs) == 1 {
		t := fa.eval(rhs[0])
		for _, l := range lhs {
			bind(l, t)
		}
		return changed
	}
	for i, l := range lhs {
		if i < len(rhs) {
			bind(l, fa.eval(rhs[i]))
		}
	}
	return changed
}

// baseIdent digs out the root identifier of an lvalue chain.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rangeVars taints the loop variables of a map range, the construct whose
// order Go randomises on purpose.
func (fa *funcAnalysis) rangeVars(n *ast.RangeStmt) bool {
	t := fa.eval(n.X)
	if _, isMap := fa.pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); isMap {
		t = t.union(taint{mask: nondet, why: "map iteration order"})
	}
	changed := false
	for _, v := range []ast.Expr{n.Key, n.Value} {
		if v == nil {
			continue
		}
		id, ok := v.(*ast.Ident)
		if !ok {
			continue
		}
		obj := fa.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = fa.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		merged := fa.env[obj].union(t)
		if merged.mask != fa.env[obj].mask {
			fa.env[obj] = merged
			changed = true
		}
	}
	return changed
}

// selectVars taints values received in a select with two or more comm
// clauses: which arm ran is scheduler-dependent.
func (fa *funcAnalysis) selectVars(n *ast.SelectStmt) bool {
	clauses := 0
	for _, c := range n.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			clauses++
		}
	}
	if clauses < 2 {
		return false
	}
	changed := false
	for _, c := range n.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		if as, ok := cc.Comm.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				id, ok := ast.Unparen(l).(*ast.Ident)
				if !ok {
					continue
				}
				obj := fa.pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = fa.pass.TypesInfo.Uses[id]
				}
				if obj == nil {
					continue
				}
				merged := fa.env[obj].union(taint{mask: nondet, why: "select arm choice"})
				if merged.mask != fa.env[obj].mask {
					fa.env[obj] = merged
					changed = true
				}
			}
		}
	}
	return changed
}

// sanitize clears taint from a variable passed to a sorting function:
// collect-then-sort restores a canonical order.
func (fa *funcAnalysis) sanitize(e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn := fa.staticCallee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "sort" && path != "slices" {
		return
	}
	if path == "slices" && !strings.HasPrefix(fn.Name(), "Sort") {
		return
	}
	if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		if obj := fa.pass.TypesInfo.Uses[id]; obj != nil {
			fa.env[obj] = taint{}
		}
	}
}

// eval computes an expression's taint under the current environment.
func (fa *funcAnalysis) eval(e ast.Expr) taint {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fa.pass.TypesInfo.Uses[e]; obj != nil {
			return fa.env[obj]
		}
	case *ast.ParenExpr:
		return fa.eval(e.X)
	case *ast.StarExpr:
		return fa.eval(e.X)
	case *ast.UnaryExpr:
		return fa.eval(e.X)
	case *ast.BinaryExpr:
		return fa.eval(e.X).union(fa.eval(e.Y))
	case *ast.SelectorExpr:
		if _, ok := fa.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return fa.eval(e.X)
		}
	case *ast.IndexExpr:
		return fa.eval(e.X).union(fa.eval(e.Index))
	case *ast.SliceExpr:
		return fa.eval(e.X)
	case *ast.TypeAssertExpr:
		return fa.eval(e.X)
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.union(fa.eval(el))
		}
		return t
	case *ast.CallExpr:
		return fa.evalCall(e)
	}
	return taint{}
}

// evalCall models a call's result taint: conversions and builtins pass
// taint through, known nondeterministic APIs introduce it, and imported
// TaintedReturn facts carry it across package boundaries.
func (fa *funcAnalysis) evalCall(call *ast.CallExpr) taint {
	// Type conversion: T(x) keeps x's taint.
	if fun := ast.Unparen(call.Fun); true {
		var id *ast.Ident
		switch f := fun.(type) {
		case *ast.Ident:
			id = f
		case *ast.SelectorExpr:
			id = f.Sel
		}
		if id != nil {
			if _, isType := fa.pass.TypesInfo.Uses[id].(*types.TypeName); isType && len(call.Args) == 1 {
				return fa.eval(call.Args[0])
			}
			if b, isBuiltin := fa.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				switch b.Name() {
				case "append":
					var t taint
					for _, a := range call.Args {
						t = t.union(fa.eval(a))
					}
					return t
				case "min", "max":
					var t taint
					for _, a := range call.Args {
						t = t.union(fa.eval(a))
					}
					return t
				}
				return taint{}
			}
		}
	}
	fn := fa.staticCallee(call)
	if fn == nil {
		return taint{}
	}
	if why, ok := nondetSource(fn); ok {
		return taint{mask: nondet, why: why}
	}
	var tr TaintedReturn
	if fa.pass.ImportObjectFact(fn, &tr) {
		return taint{mask: nondet, why: "a nondeterministically-derived result of " + calleeName(fn)}
	}
	return taint{}
}

// staticCallee resolves a call to its *types.Func when the target is
// static (plain function or concrete method).
func (fa *funcAnalysis) staticCallee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := fa.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// nondetSource recognises the APIs whose results are nondeterministic by
// construction.
func nondetSource(fn *types.Func) (string, bool) {
	recv := recvNamed(fn)
	if recv != nil && recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "sync" && recv.Obj().Name() == "Map" {
		return "sync.Map access", true
	}
	if fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			return "wall-clock time", true
		}
	case "math/rand", "math/rand/v2":
		if recv == nil { // package-level helpers share the unseeded global source
			return "unseeded math/rand", true
		}
	case "maps":
		if fn.Name() == "Keys" || fn.Name() == "Values" {
			return "map iteration order", true
		}
	}
	return "", false
}

// recvNamed unwraps a method's receiver to its named type.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// exportFacts derives and publishes this function's SinkParams and
// TaintedReturn facts, reporting whether anything new was learned.
func (fa *funcAnalysis) exportFacts() bool {
	if fa.obj == nil || fa.obj.Pkg() != fa.pass.Pkg {
		return false
	}
	if _, ok := analysis.ObjectPath(fa.obj); !ok {
		return false
	}
	changed := false

	var sinkMask uint64
	ast.Inspect(fa.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range fa.sinkArgs(call) {
			sinkMask |= fa.eval(arg).mask &^ nondet
		}
		return true
	})
	if sinkMask != 0 {
		var old SinkParams
		had := fa.pass.ImportObjectFact(fa.obj, &old)
		if !had || old.Mask|sinkMask != old.Mask {
			fa.pass.ExportObjectFact(fa.obj, &SinkParams{Mask: old.Mask | sinkMask})
			changed = true
		}
	}

	returnsTaint := false
	ast.Inspect(fa.decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if fa.eval(r).hot() {
				returnsTaint = true
			}
		}
		return true
	})
	if returnsTaint {
		var tr TaintedReturn
		if !fa.pass.ImportObjectFact(fa.obj, &tr) {
			fa.pass.ExportObjectFact(fa.obj, &TaintedReturn{})
			changed = true
		}
	}
	return changed
}

// report emits a diagnostic for every nondeterministic value reaching a
// sink in this function.
func (fa *funcAnalysis) report() {
	ast.Inspect(fa.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range fa.sinkArgs(call) {
			if t := fa.eval(arg); t.hot() {
				why := t.why
				if why == "" {
					why = "a nondeterministic source"
				}
				fa.pass.Reportf(call.Pos(),
					"value derived from %s flows into %s; produce it deterministically or sort before the sink",
					why, fa.callName(call))
			}
		}
		return true
	})
}

// sinkArgs returns the arguments of call that feed a reproducibility
// sink: checkpoint encoders, telemetry mutators, JSON manifests, and any
// function carrying a SinkParams fact.
func (fa *funcAnalysis) sinkArgs(call *ast.CallExpr) []ast.Expr {
	fn := fa.staticCallee(call)
	if fn == nil {
		return nil
	}
	if recv := recvNamed(fn); recv != nil && recv.Obj().Pkg() != nil {
		path, tname := recv.Obj().Pkg().Path(), recv.Obj().Name()
		switch {
		case strings.HasSuffix(path, "internal/checkpoint") && tname == "Codec":
			return call.Args
		case strings.HasSuffix(path, "internal/telemetry"):
			key := tname + "." + fn.Name()
			switch key {
			case "Counter.Add", "Counter.Store", "Gauge.Set":
				return call.Args
			}
		case path == "encoding/json" && tname == "Encoder" && fn.Name() == "Encode":
			return call.Args
		}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" &&
		(fn.Name() == "Marshal" || fn.Name() == "MarshalIndent") {
		return call.Args
	}
	var sp SinkParams
	if fa.pass.ImportObjectFact(fn, &sp) {
		var out []ast.Expr
		for i, arg := range call.Args {
			if i < 62 && sp.Mask&(1<<i) != 0 {
				out = append(out, arg)
			}
		}
		return out
	}
	return nil
}

// callName renders a call target for diagnostics.
func (fa *funcAnalysis) callName(call *ast.CallExpr) string {
	fn := fa.staticCallee(call)
	if fn == nil {
		return "sink"
	}
	return calleeName(fn)
}

// calleeName renders pkg.Type.Method or pkg.Func.
func calleeName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := recvNamed(fn); recv != nil {
		return pkg + recv.Obj().Name() + "." + fn.Name()
	}
	return pkg + fn.Name()
}
