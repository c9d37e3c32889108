// Package hotprop enforces the //tcp:hotpath zero-allocation contract
// transitively through the static call graph. hotalloc checks only the
// bodies of annotated functions; a hot function calling an unannotated
// helper that allocates passed silently. hotprop summarises every
// function's allocation behaviour — its own body (via hotalloc.Scan) plus
// the summaries of its static callees — and exports the summary as a
// cross-package fact, so when a //tcp:hotpath function in a later package
// calls into an earlier one, the call site is checked against the callee's
// whole reachable subgraph.
//
// The escape hatch is the deliberate slow path: the enforced idiom splits
// rare work into its own function (Emit → emitSlow, Codec.put →
// grow), and such a function carries a
//
//	//tcp:coldpath <why the call is rare/guarded>
//
// marker. Calls from hot code to a coldpath function are allowed — the
// justification is the audit trail — and calls to another //tcp:hotpath
// function are allowed because hotalloc enforces that body itself.
// Dynamic calls (interface methods, func values) are outside the static
// graph and remain the benchmarks' job; calls into packages the driver
// has not analyzed (the standard library) are assumed clean except for
// the fmt/log bans hotalloc already applies.
//
// The same propagation carries a second contract: no (*telemetry.Counter)
// Inc or Add reachable from a //tcp:hotpath function outside
// internal/telemetry. Each bump is an atomic read-modify-write, paid even
// with telemetry off; the simulated machine counts into single-writer
// fields and publishes them through a telemetry.Mirror instead. Unlike
// allocation, a //tcp:coldpath callee is no exemption here: a per-miss
// slow path is still far too frequent for a locked instruction.
package hotprop

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"tagprefetch/internal/analysis"
	"tagprefetch/internal/analysis/hotalloc"
)

// ColdMarker declares a function a deliberate, guarded slow path; calls to
// it from hot code are exempt. The justification after the marker is
// mandatory.
const ColdMarker = "tcp:coldpath"

// An AllocSummary is the fact hotprop exports about every package-level
// function and method: whether its fast path may allocate (directly or
// through unannotated callees), and how the contract markers classify it.
type AllocSummary struct {
	Allocates bool
	Detail    string // first allocation site or call chain, for diagnostics
	Hot       bool   // carries //tcp:hotpath (body enforced by hotalloc)
	Cold      bool   // carries //tcp:coldpath (justified slow path)

	Bumps      bool   // may reach (*telemetry.Counter).Inc/Add outside internal/telemetry
	BumpDetail string // first bump site or call chain, for diagnostics
}

// AFact marks AllocSummary as an analysis fact.
func (*AllocSummary) AFact() {}

// Analyzer enforces hot-path allocation-freedom through the call graph.
var Analyzer = &analysis.Analyzer{
	Name: "hotprop",
	Doc: "propagates //tcp:hotpath through the static call graph: flags calls from hot " +
		"functions to unannotated callees that may allocate (transitively); " +
		"//tcp:coldpath <why> declares a justified slow path",
	Run:       run,
	FactTypes: []analysis.Fact{new(AllocSummary)},
}

// callRef is one static call site inside a function.
type callRef struct {
	pos    ast.Node
	callee *types.Func
}

// fnInfo is hotprop's working state for one package-level function.
type fnInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	summary AllocSummary
	calls   []callRef
}

func run(pass *analysis.Pass) error {
	var fns []*fnInfo
	byObj := make(map[*types.Func]*fnInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{decl: fd, obj: obj}
			coldWhy, cold := analysis.Directive(fd.Doc, ColdMarker)
			fi.summary.Hot = hotalloc.IsHot(fd.Doc)
			fi.summary.Cold = cold
			if cold && coldWhy == "" {
				pass.Reportf(fd.Pos(), "//tcp:coldpath marker needs a justification: say why the call is rare or guarded")
			}
			if cold && fi.summary.Hot {
				pass.Reportf(fd.Pos(), "function carries both //tcp:hotpath and //tcp:coldpath; pick one")
			}
			if sites := hotalloc.Scan(pass.TypesInfo, pass.Pkg, fd.Body); len(sites) > 0 {
				fi.summary.Allocates = true
				fi.summary.Detail = shortSite(pass, sites[0])
			}
			fi.calls = staticCalls(pass, fd.Body)
			fns = append(fns, fi)
			byObj[obj] = fi
		}
	}

	// Propagate may-allocate and may-bump through the package's call graph
	// to a fixed point; cross-package callees contribute through their
	// exported facts, already computed because the driver walks
	// dependencies first. The telemetry package's own bumps are its
	// business: its counters are the concurrent registry side.
	countsBumps := !isTelemetry(pass.Pkg.Path())
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			for _, c := range fi.calls {
				cs, ok := summaryOf(pass, byObj, c.callee)
				if !fi.summary.Allocates && ok && !cs.Hot && !cs.Cold && cs.Allocates {
					fi.summary.Allocates = true
					fi.summary.Detail = fmt.Sprintf("calls %s: %s", calleeName(c.callee), cs.Detail)
					changed = true
				}
				if countsBumps && !fi.summary.Bumps {
					if detail, bumps := bumpVia(pass, c, cs, ok); bumps {
						fi.summary.Bumps = true
						fi.summary.BumpDetail = detail
						changed = true
					}
				}
			}
		}
	}

	// Enforce at every call site inside a hot function.
	for _, fi := range fns {
		if !fi.summary.Hot {
			continue
		}
		for _, c := range fi.calls {
			cs, ok := summaryOf(pass, byObj, c.callee)
			if countsBumps {
				if detail, bumps := bumpVia(pass, c, cs, ok); bumps {
					pass.Reportf(c.pos.Pos(), "//tcp:hotpath function reaches an atomic telemetry counter "+
						"bump (%s), paid even with telemetry off; count into a plain single-writer field "+
						"and publish it through a telemetry.Mirror", detail)
				}
			}
			if !ok || cs.Hot || cs.Cold || !cs.Allocates {
				continue
			}
			var fix *analysis.SuggestedFix
			if callee, local := byObj[c.callee]; local {
				fix = &analysis.SuggestedFix{
					Message: fmt.Sprintf("declare %s a justified slow path", c.callee.Name()),
					Edits: []analysis.Edit{
						pass.InsertAt(callee.decl.Pos(), "//"+ColdMarker+" TODO: justify this slow path\n"),
					},
				}
			}
			pass.ReportFix(c.pos.Pos(), fix,
				"//tcp:hotpath function calls %s, which may allocate (%s); make it allocation-free and mark it "+
					"//tcp:hotpath, or declare it a guarded slow path with //tcp:coldpath <why>",
				calleeName(c.callee), cs.Detail)
		}
	}

	// Export a summary fact for every package-level function so dependent
	// packages can check their own hot calls into this one.
	for _, fi := range fns {
		if _, ok := analysis.ObjectPath(fi.obj); ok {
			pass.ExportObjectFact(fi.obj, &fi.summary)
		}
	}
	return nil
}

// summaryOf resolves a callee's allocation summary: same-package working
// state first, then imported facts. ok=false means the callee is outside
// the analyzed universe (stdlib) and is assumed clean.
func summaryOf(pass *analysis.Pass, byObj map[*types.Func]*fnInfo, callee *types.Func) (AllocSummary, bool) {
	if fi, ok := byObj[callee]; ok {
		return fi.summary, true
	}
	var s AllocSummary
	if pass.ImportObjectFact(callee, &s) {
		return s, true
	}
	return AllocSummary{}, false
}

// staticCalls collects the statically-resolvable calls in body: named
// functions and concrete methods. Interface methods and func values are
// dynamic and skipped.
func staticCalls(pass *analysis.Pass, body ast.Node) []callRef {
	var out []callRef
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure bodies are summarised via their own sites when called statically — they never are
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return true
		}
		callee, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				return true // dynamic dispatch
			}
		}
		out = append(out, callRef{pos: call, callee: callee})
		return true
	})
	return out
}

// bumpVia reports whether call c reaches a counter bump, directly or
// through a callee that is not hot (a hot callee's own body is checked),
// with a diagnostic detail. cs and known are summaryOf's result for c.
func bumpVia(pass *analysis.Pass, c callRef, cs AllocSummary, known bool) (string, bool) {
	switch {
	case isCounterBump(c.callee):
		pos := pass.Fset.Position(c.pos.Pos())
		return fmt.Sprintf("%s at %s:%d", calleeName(c.callee), filepath.Base(pos.Filename), pos.Line), true
	case known && !cs.Hot && cs.Bumps:
		return fmt.Sprintf("calls %s: %s", calleeName(c.callee), cs.BumpDetail), true
	}
	return "", false
}

// isTelemetry reports whether path is the telemetry package.
func isTelemetry(path string) bool {
	return path == "telemetry" || strings.HasSuffix(path, "internal/telemetry")
}

// isCounterBump reports whether f is (*telemetry.Counter).Inc or Add.
func isCounterBump(f *types.Func) bool {
	if f.Pkg() == nil || !isTelemetry(f.Pkg().Path()) || (f.Name() != "Inc" && f.Name() != "Add") {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Counter"
}

// calleeName renders a callee for diagnostics: pkg.Func or pkg.Recv.Method.
func calleeName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + name
	}
	return name
}

// shortSite renders an allocation site compactly for fact details.
func shortSite(pass *analysis.Pass, s hotalloc.Site) string {
	pos := pass.Fset.Position(s.Pos)
	return fmt.Sprintf("%s at %s:%d", firstClause(s.Msg), filepath.Base(pos.Filename), pos.Line)
}

// firstClause trims a hotalloc message to its leading claim.
func firstClause(msg string) string {
	for i, r := range msg {
		if r == ';' || r == '(' {
			for i > 0 && msg[i-1] == ' ' {
				i--
			}
			return msg[:i]
		}
	}
	return msg
}
