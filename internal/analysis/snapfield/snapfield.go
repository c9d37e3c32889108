// Package snapfield proves snapshot coverage for every type implementing
// checkpoint.Snapshotter: each struct field must be referenced by the
// Snapshot method, which both encodes it into the image and decodes it
// back, or carry an explicit exemption
//
//	//tcp:nosnap <why this field need not survive a checkpoint>
//
// on its declaration. This is the "added a field, forgot the encoder" bug
// class: today it is caught only by the snapshot-layout golden and
// FuzzRestore, and only when the forgotten field actually changes bytes —
// a freshly-zero counter or a cold table slips through and silently
// breaks the restore-and-continue bit-identity contract
// (docs/CHECKPOINT.md). One method codes both directions, so a field is
// either in the layout or not; there is no one-way codec to detect.
//
// Coverage is judged by reference, through the static call closure inside
// the package: a field used by a helper that Snapshot calls counts, and a
// field read for validation (a section label, a geometry check) counts
// too — the analyzer proves presence, not byte equality, which stays the
// golden test's job. A Snapshotter implemented by a promoted method is
// treated as covering only the embedded field that provides it: the other
// fields are invisible to the inherited codec and are reported.
//
// `tcplint -fix` repairs findings mechanically: a plain scalar field gains
// one codec line at the end of Snapshot; anything else gains a
// //tcp:nosnap TODO stub to be justified or serialised by hand.
package snapfield

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tagprefetch/internal/analysis"
)

// NoSnapMarker exempts one field from snapshot coverage; a justification
// is mandatory.
const NoSnapMarker = "tcp:nosnap"

// Analyzer proves Snapshotter field coverage.
var Analyzer = &analysis.Analyzer{
	Name: "snapfield",
	Doc: "for every checkpoint.Snapshotter, proves each struct field is coded by Snapshot " +
		"(through the package call closure), or carries //tcp:nosnap <why>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	targets := snapshotters(pass.Pkg)
	if len(targets) == 0 {
		return nil
	}
	idx := newPackageIndex(pass)
	for _, t := range targets {
		checkType(pass, idx, t)
	}
	return nil
}

// snapshotter is one type the analyzer checks, with the method its field
// coverage is judged from.
type snapshotter struct {
	named    *types.Named
	st       *types.Struct
	snapshot coverage
}

// snapshotters lists pkg's package-level struct types whose pointer
// implements checkpoint.Snapshotter, in scope order. Recognition goes
// through the interface itself, so a change to its method shapes cannot
// make the analyzer skip a type.
func snapshotters(pkg *types.Package) []snapshotter {
	iface := findSnapshotter(pkg)
	if iface == nil {
		return nil // package cannot implement Snapshotter without importing checkpoint
	}
	var out []snapshotter
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		out = append(out, snapshotter{named, st, snapMethod(named, st, pkg)})
	}
	return out
}

// Checked returns the types the analyzer checks in pkg, in scope order:
// the package-level struct types whose pointer implements
// checkpoint.Snapshotter.
func Checked(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, t := range snapshotters(pkg) {
		out = append(out, t.named)
	}
	return out
}

// coverage pairs the Snapshot method with the embedded field providing it
// when the method is promoted (nil when declared on the type itself).
type coverage struct {
	method   *types.Func
	promoted *types.Var
}

// checkType reports uncovered fields of one Snapshotter type.
func checkType(pass *analysis.Pass, idx *packageIndex, t snapshotter) {
	named, st := t.named, t.st
	covered := idx.fieldsReachedBy(t.snapshot)
	tname := named.Obj().Name()

	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if field.Name() == "_" {
			continue
		}
		decl := idx.fieldDecl[field]
		why, exempt := nosnapOf(decl)
		switch {
		case exempt && why == "":
			pass.Reportf(fieldPos(decl, field), "//tcp:nosnap needs a justification: say why %s.%s need not survive a checkpoint", tname, field.Name())
		case exempt && covered[field]:
			pass.Reportf(fieldPos(decl, field), "stale //tcp:nosnap on %s.%s: Snapshot references the field, so the annotation excuses nothing; drop it", tname, field.Name())
		case exempt, covered[field]:
			// justified exclusion, or coded
		default:
			pass.ReportFix(fieldPos(decl, field), idx.fix(pass, t.snapshot, decl, field),
				"field %s.%s is not serialised: (*%s).Snapshot never codes it; encode it or annotate //tcp:nosnap <why>", tname, field.Name(), tname)
		}
	}
}

// fieldPos locates a field's diagnostic position: the declared name when
// the AST is available, the struct definition otherwise.
func fieldPos(decl *ast.Field, field *types.Var) token.Pos {
	if decl != nil {
		for _, n := range decl.Names {
			if n.Name == field.Name() {
				return n.Pos()
			}
		}
		return decl.Pos()
	}
	return field.Pos()
}

// nosnapOf reads the //tcp:nosnap marker off a field declaration's doc or
// trailing comment.
func nosnapOf(decl *ast.Field) (string, bool) {
	if decl == nil {
		return "", false
	}
	if why, ok := analysis.Directive(decl.Doc, NoSnapMarker); ok {
		return why, true
	}
	return analysis.Directive(decl.Comment, NoSnapMarker)
}

// findSnapshotter locates checkpoint.Snapshotter among pkg's direct
// imports.
func findSnapshotter(pkg *types.Package) *types.Interface {
	for _, imp := range pkg.Imports() {
		if !strings.HasSuffix(imp.Path(), "internal/checkpoint") {
			continue
		}
		if tn, ok := imp.Scope().Lookup("Snapshotter").(*types.TypeName); ok {
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
	}
	return nil
}

// snapMethod resolves T's Snapshot method, following promotion through
// embedded fields; promoted is the embedded field supplying it.
func snapMethod(named *types.Named, st *types.Struct, pkg *types.Package) coverage {
	obj, index, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pkg, "Snapshot")
	cov := coverage{method: obj.(*types.Func)}
	if len(index) > 1 {
		cov.promoted = st.Field(index[0])
	}
	return cov
}

// packageIndex holds the package-wide structures coverage is judged from:
// which fields each function references and which same-package functions
// it calls.
type packageIndex struct {
	pass      *analysis.Pass
	decls     map[*types.Func]*ast.FuncDecl
	fieldUse  map[*types.Func]map[*types.Var]bool
	calls     map[*types.Func][]*types.Func
	fieldDecl map[*types.Var]*ast.Field
}

func newPackageIndex(pass *analysis.Pass) *packageIndex {
	idx := &packageIndex{
		pass:      pass,
		decls:     make(map[*types.Func]*ast.FuncDecl),
		fieldUse:  make(map[*types.Func]map[*types.Var]bool),
		calls:     make(map[*types.Func][]*types.Func),
		fieldDecl: make(map[*types.Var]*ast.Field),
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				if fn, ok := pass.TypesInfo.Defs[n.Name].(*types.Func); ok {
					idx.decls[fn] = n
					idx.indexBody(fn, n.Body)
				}
				return false
			case *ast.StructType:
				idx.indexStruct(n)
			}
			return true
		})
	}
	return idx
}

// indexStruct maps field objects to their declarations so annotations and
// positions resolve.
func (idx *packageIndex) indexStruct(st *ast.StructType) {
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 { // embedded: the type name is the implicit field name
			if v, ok := idx.pass.TypesInfo.Defs[embeddedIdent(field.Type)].(*types.Var); ok {
				idx.fieldDecl[v] = field
			}
			continue
		}
		for _, name := range field.Names {
			if v, ok := idx.pass.TypesInfo.Defs[name].(*types.Var); ok {
				idx.fieldDecl[v] = field
			}
		}
	}
}

// embeddedIdent unwraps an embedded field type expression to its name.
func embeddedIdent(e ast.Expr) *ast.Ident {
	switch t := e.(type) {
	case *ast.Ident:
		return t
	case *ast.StarExpr:
		return embeddedIdent(t.X)
	case *ast.SelectorExpr:
		return t.Sel
	}
	return nil
}

// indexBody records fn's field references (plain uses, struct-literal
// keys, and every field stepped through by a selection, including embedded
// hops) and its static same-package calls.
func (idx *packageIndex) indexBody(fn *types.Func, body *ast.BlockStmt) {
	use := make(map[*types.Var]bool)
	info := idx.pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() {
				use[v] = true
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok {
				markSelectionPath(use, sel)
			}
		case *ast.CallExpr:
			var id *ast.Ident
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				id = fun
			case *ast.SelectorExpr:
				id = fun.Sel
			default:
				return true
			}
			if callee, ok := info.Uses[id].(*types.Func); ok && callee.Pkg() == idx.pass.Pkg {
				idx.calls[fn] = append(idx.calls[fn], callee)
			}
		}
		return true
	})
	idx.fieldUse[fn] = use
}

// markSelectionPath marks every field along a selection's index path, so
// promoted accesses credit the embedded hop as well as the leaf. A method
// selection's last index names the method, not a field.
func markSelectionPath(use map[*types.Var]bool, sel *types.Selection) {
	t := sel.Recv()
	path := sel.Index()
	if sel.Kind() != types.FieldVal {
		path = path[:len(path)-1]
	}
	for _, i := range path {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return
		}
		f := st.Field(i)
		use[f] = true
		t = f.Type()
	}
}

// fieldsReachedBy returns the fields referenced by cov's method or any
// same-package function it transitively calls. A promoted method covers
// exactly the embedded field that provides it.
func (idx *packageIndex) fieldsReachedBy(cov coverage) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	if cov.promoted != nil {
		out[cov.promoted] = true
		return out
	}
	seen := make(map[*types.Func]bool)
	queue := []*types.Func{cov.method}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		for v := range idx.fieldUse[fn] {
			out[v] = true
		}
		queue = append(queue, idx.calls[fn]...)
	}
	return out
}

// scalarMethod maps a plain basic field type to the matching
// checkpoint.Codec primitive, for codec-line fixes.
func scalarMethod(t types.Type) (string, bool) {
	b, ok := t.(*types.Basic)
	if !ok {
		return "", false
	}
	switch b.Kind() {
	case types.Bool:
		return "Bool", true
	case types.Uint8:
		return "U8", true
	case types.Uint32:
		return "U32", true
	case types.Uint64:
		return "U64", true
	case types.Int64:
		return "I64", true
	case types.Int:
		return "Int", true
	case types.Float64:
		return "F64", true
	case types.String:
		return "String", true
	}
	return "", false
}

// fix repairs an uncoded field: one codec line appended to Snapshot for a
// plain scalar, a //tcp:nosnap TODO stub otherwise.
func (idx *packageIndex) fix(pass *analysis.Pass, snapshot coverage, decl *ast.Field, field *types.Var) *analysis.SuggestedFix {
	if m, ok := scalarMethod(field.Type()); ok {
		if fn := idx.decls[snapshot.method]; fn != nil && snapshot.promoted == nil {
			if recv, c, ok := methodNames(fn); ok {
				return &analysis.SuggestedFix{
					Message: fmt.Sprintf("code %s in Snapshot", field.Name()),
					Edits:   []analysis.Edit{appendStmt(pass, fn, fmt.Sprintf("%s.%s(&%s.%s)", c, m, recv, field.Name()))},
				}
			}
		}
	}
	if decl == nil {
		return nil
	}
	return &analysis.SuggestedFix{
		Message: fmt.Sprintf("stub a //tcp:nosnap exemption for %s", field.Name()),
		Edits:   []analysis.Edit{pass.InsertAt(decl.End(), " //"+NoSnapMarker+" TODO: justify exclusion or serialise the field")},
	}
}

// methodNames returns the receiver and first-parameter names of a method
// declaration, for rendering fix text.
func methodNames(decl *ast.FuncDecl) (recv, param string, ok bool) {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return "", "", false
	}
	params := decl.Type.Params
	if params == nil || len(params.List) == 0 || len(params.List[0].Names) == 0 {
		return "", "", false
	}
	return decl.Recv.List[0].Names[0].Name, params.List[0].Names[0].Name, true
}

// appendStmt builds an edit adding line as the method's last statement:
// after the last statement, or before a trailing bare return.
func appendStmt(pass *analysis.Pass, decl *ast.FuncDecl, line string) analysis.Edit {
	stmts := decl.Body.List
	if len(stmts) == 0 {
		return pass.InsertAt(decl.Body.Lbrace+1, "\n\t"+line)
	}
	last := stmts[len(stmts)-1]
	if _, ok := last.(*ast.ReturnStmt); ok {
		return pass.InsertAt(last.Pos(), line+"\n\t")
	}
	return pass.InsertAt(last.End(), "\n\t"+line)
}
