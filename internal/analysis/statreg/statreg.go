// Package statreg enforces the telemetry registry contract from
// internal/telemetry:
//
//   - metric names are dot-separated lower_snake_case paths — a typo'd
//     name silently creates a parallel metric instead of failing;
//   - a function must not register the same name twice on one registry
//     view (same kind: the second desc is silently dropped; different
//     kind: panic at runtime) nor mint two standalone metrics with one
//     name (Attach would silently replace the first);
//   - metrics obtained with Registry.Lookup are read-side handles for
//     snapshots and probes; mutating through them bypasses the owning
//     component's accounting (warmup-subtraction snapshots, Stats()
//     views) and must go through the component-held handle instead;
//   - every *telemetry.Counter/Gauge struct field must be
//     registered — attached, listed in a []telemetry.Metric, or created
//     through a Registry — or Stats() views will read a metric that never
//     appears in snapshots and run reports (the forgot-to-extend-metrics()
//     bug).
//
// The telemetry package itself is exempt (it implements the contract).
// Genuine exceptions carry a justified //lint:ignore tcplint/statreg.
package statreg

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"tagprefetch/internal/analysis"
)

// Analyzer flags telemetry registry misuse.
var Analyzer = &analysis.Analyzer{
	Name: "statreg",
	Doc: "flags telemetry misuse: malformed metric names, duplicate/conflicting registration, " +
		"mutation through Registry.Lookup handles, and metric fields never registered",
	Run: run,
}

// nameRE is the registry naming convention: dot-separated lower_snake_case.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// knownRoots lists the top-level metric namespaces in use. One- and
// two-segment names are usually relative to a sub-registry and say nothing
// about their root, but a three-or-more-segment name is a fully-qualified
// path — its first segment must be a namespace the reporting pipeline
// (run reports, /metrics exposition, figure extraction) knows about, or the
// metric lands in a family no consumer reads. Extend this list when a new
// subsystem mints a namespace (as internal/fleetobs did with fleet.*).
var knownRoots = map[string]bool{
	"cpu":      true,
	"memsys":   true,
	"prefetch": true,
	"run":      true,
	"fleet":    true,
	"sweepd":   true,
}

// mutators lists the state-changing methods per metric kind.
var mutators = map[string]map[string]bool{
	"Counter": {"Inc": true, "Add": true, "Store": true},
	"Gauge":   {"Set": true},
}

func run(pass *analysis.Pass) error {
	if isTelemetryPath(pass.Pkg.Path()) {
		return nil
	}
	checkNamesAndDuplicates(pass)
	checkLookupMutation(pass)
	checkUnregisteredFields(pass)
	return nil
}

// isTelemetryPath reports whether path is the telemetry package itself.
func isTelemetryPath(path string) bool {
	return path == "telemetry" || strings.HasSuffix(path, "internal/telemetry")
}

// isTelemetryPkg reports whether p is the internal/telemetry package.
func isTelemetryPkg(p *types.Package) bool {
	return p != nil && isTelemetryPath(p.Path())
}

// telemetryNamed returns the name of the telemetry type t resolves to
// (through one pointer), or "".
func telemetryNamed(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !isTelemetryPkg(named.Obj().Pkg()) {
		return ""
	}
	return named.Obj().Name()
}

// callee resolves the object a call's function expression refers to.
func callee(pass *analysis.Pass, call *ast.CallExpr) (types.Object, *ast.SelectorExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun], nil
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel], fun
	}
	return nil, nil
}

// registryCall reports whether call is reg.Counter/Gauge/Sub/
// Attach/Lookup on a *telemetry.Registry, returning the method name and
// receiver expression.
func registryCall(pass *analysis.Pass, call *ast.CallExpr) (method string, recv ast.Expr) {
	obj, sel := callee(pass, call)
	if obj == nil || sel == nil || !isTelemetryPkg(obj.Pkg()) {
		return "", nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", nil
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || telemetryNamed(sig.Recv().Type()) != "Registry" {
		return "", nil
	}
	return fn.Name(), sel.X
}

// newMetricCall reports whether call is telemetry.NewCounter/NewGauge,
// returning the constructor name.
func newMetricCall(pass *analysis.Pass, call *ast.CallExpr) string {
	obj, _ := callee(pass, call)
	if obj == nil || !isTelemetryPkg(obj.Pkg()) {
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	switch fn.Name() {
	case "NewCounter", "NewGauge":
		return fn.Name()
	}
	return ""
}

// literalString returns the string value of a basic literal argument.
func literalString(e ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// checkNamesAndDuplicates validates metric name literals and flags
// double registration within one function.
func checkNamesAndDuplicates(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// seen maps registration key -> metric kind of first sighting.
			seen := make(map[string]string)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if method, recv := registryCall(pass, call); method != "" {
					switch method {
					case "Counter", "Gauge":
						name, ok := literalString(call.Args[0])
						if !ok {
							return true
						}
						checkName(pass, call.Args[0], name)
						key := "reg\x00" + types.ExprString(recv) + "\x00" + name
						reportDuplicate(pass, call, seen, key, method, name)
					case "Sub":
						if name, ok := literalString(call.Args[0]); ok {
							checkName(pass, call.Args[0], name)
						}
					}
					return true
				}
				if ctor := newMetricCall(pass, call); ctor != "" {
					name, ok := literalString(call.Args[0])
					if !ok {
						return true
					}
					checkName(pass, call.Args[0], name)
					key := "new\x00" + name
					reportDuplicate(pass, call, seen, key, strings.TrimPrefix(ctor, "New"), name)
				}
				return true
			})
		}
	}
}

func checkName(pass *analysis.Pass, at ast.Expr, name string) {
	if !nameRE.MatchString(name) {
		pass.Reportf(at.Pos(), "metric name %q violates the registry convention "+
			"(dot-separated lower_snake_case, e.g. \"memsys.l1.misses\")", name)
		return
	}
	if segs := strings.Split(name, "."); len(segs) >= 3 && !knownRoots[segs[0]] {
		pass.Reportf(at.Pos(), "metric name %q is rooted in unknown namespace %q; "+
			"fully-qualified names must start with a known root (%s) or no report "+
			"consumer will read the family — extend statreg knownRoots when adding one",
			name, segs[0], knownRootList())
	}
}

// knownRootList renders knownRoots sorted for stable diagnostics.
func knownRootList() string {
	roots := make([]string, 0, len(knownRoots))
	for r := range knownRoots {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	return strings.Join(roots, ", ")
}

func reportDuplicate(pass *analysis.Pass, call *ast.CallExpr, seen map[string]string, key, kind, name string) {
	prev, dup := seen[key]
	if !dup {
		seen[key] = kind
		return
	}
	if prev != kind {
		pass.Reportf(call.Pos(), "metric %q already registered as %s in this function; "+
			"registering it as %s panics at runtime", name, strings.ToLower(prev), strings.ToLower(kind))
		return
	}
	pass.Reportf(call.Pos(), "metric %q is registered twice in this function; "+
		"the second registration is silently ignored or replaces the first", name)
}

// checkLookupMutation taints variables bound from Registry.Lookup and
// flags mutating method calls reached through them.
func checkLookupMutation(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tainted := make(map[types.Object]bool)
			// Pass 1: propagate taint through assignments.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				switch {
				case len(as.Rhs) == 1 && len(as.Lhs) >= 1:
					if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
						if method, _ := registryCall(pass, call); method == "Lookup" {
							taintIdent(pass, tainted, as.Lhs[0])
							return true
						}
					}
					if len(as.Lhs) == 2 {
						// v, ok := x.(*telemetry.Counter) with x tainted
						if ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok && isTainted(pass, tainted, ta.X) {
							taintIdent(pass, tainted, as.Lhs[0])
							return true
						}
					}
					fallthrough
				default:
					for i := range as.Lhs {
						if i < len(as.Rhs) && taintedValue(pass, tainted, as.Rhs[i]) {
							taintIdent(pass, tainted, as.Lhs[i])
						}
					}
				}
				return true
			})
			// Pass 2: flag mutators called through tainted values.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !taintedValue(pass, tainted, sel.X) {
					return true
				}
				recvType := pass.TypesInfo.Types[sel.X].Type
				if recvType == nil {
					return true
				}
				kind := telemetryNamed(recvType)
				if kind == "" || !mutators[kind][sel.Sel.Name] {
					return true
				}
				pass.Reportf(call.Pos(), "%s.%s mutates a metric obtained from Registry.Lookup; "+
					"lookups are read-side handles — mutate through the component-owned metric", strings.ToLower(kind), sel.Sel.Name)
				return true
			})
		}
	}
}

func taintIdent(pass *analysis.Pass, tainted map[types.Object]bool, e ast.Expr) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		tainted[obj] = true
	} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
		tainted[obj] = true
	}
}

func isTainted(pass *analysis.Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	return tainted[pass.TypesInfo.Uses[id]]
}

// taintedValue unwraps parens and type assertions down to an identifier
// and reports whether it is tainted.
func taintedValue(pass *analysis.Pass, tainted map[types.Object]bool, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			return tainted[pass.TypesInfo.Uses[x]]
		default:
			return false
		}
	}
}

// checkUnregisteredFields flags struct fields of metric pointer type that
// are never attached, listed in a []telemetry.Metric, or created through a
// Registry anywhere in the package.
func checkUnregisteredFields(pass *analysis.Pass) {
	type fieldDecl struct {
		ident *ast.Ident
		kind  string
	}
	var candidates []fieldDecl
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil {
						continue
					}
					switch kind := telemetryNamed(obj.Type()); kind {
					case "Counter", "Gauge":
						candidates = append(candidates, fieldDecl{name, kind})
					}
				}
			}
			return true
		})
	}
	if len(candidates) == 0 {
		return
	}

	registered := make(map[types.Object]bool)
	markSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := pass.TypesInfo.Selections[sel]; s != nil {
				registered[s.Obj()] = true
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if method, _ := registryCall(pass, n); method == "Attach" {
					for _, arg := range n.Args {
						markSel(arg)
					}
				}
				// append(ms, c.hits, ...) onto a []telemetry.Metric
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(n.Args) > 1 {
						if isMetricSlice(pass.TypesInfo.Types[n.Args[0]].Type) {
							for _, arg := range n.Args[1:] {
								markSel(arg)
							}
						}
					}
				}
			case *ast.CompositeLit:
				if tv, ok := pass.TypesInfo.Types[n]; ok && isMetricSlice(tv.Type) {
					for _, el := range n.Elts {
						markSel(el)
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
						switch method, _ := registryCall(pass, call); method {
						case "Counter", "Gauge":
							markSel(n.Lhs[i])
						}
					}
				}
			}
			return true
		})
	}

	for _, c := range candidates {
		obj := pass.TypesInfo.Defs[c.ident]
		if !registered[obj] {
			pass.Reportf(c.ident.Pos(), "metric field %s (*telemetry.%s) is never registered: attach it, "+
				"list it in a []telemetry.Metric, or create it via a Registry, or it will be missing "+
				"from snapshots and run reports", c.ident.Name, c.kind)
		}
	}
}

// isMetricSlice reports whether t is []telemetry.Metric.
func isMetricSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	named, ok := sl.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Metric" && isTelemetryPkg(named.Obj().Pkg())
}
