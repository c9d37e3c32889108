// Facts let analyzers communicate across package boundaries, mirroring
// golang.org/x/tools/go/analysis Facts on the standard library. An
// analyzer working on package P may attach a typed fact to one of P's
// package-level objects (a function, method, type, var, or const); when
// the driver later analyzes a package that imports P, the same analyzer
// can read those facts back and reason about P's objects without seeing
// P's source.
//
// The driver makes this sound by visiting packages in dependency order —
// the order `go list -deps` already emits — with one shared *Facts store
// for the whole walk: by the time an importer is analyzed, every fact its
// dependencies can export has been recorded. Facts live in memory for the
// duration of one tcplint process; nothing is serialised, because the
// whole module is analyzed in a single invocation.
//
// Because dependencies are typechecked from export data in the importing
// package, a types.Object seen by an importer is not pointer-identical to
// the object the defining package exported the fact on. Facts are
// therefore keyed by a stable object path — package path plus
// "Name" or "Recv.Name" — computed identically on both sides, the same
// trick x/tools' objectpath plays.
package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed message exported by an analyzer about an object.
// Implementations must be pointer types so ImportObjectFact can copy into
// the caller's value; AFact is a marker method.
type Fact interface {
	AFact()
}

// Facts is the store shared by every pass of one driver walk. It is not
// safe for concurrent use: the driver analyzes packages sequentially (the
// dependency order that makes facts sound is inherently serial).
type Facts struct {
	m map[factKey]Fact
}

// factKey identifies one fact: the defining package, the object's stable
// path within it, and the fact's concrete type. Keying on the type means
// one analyzer cannot observe another's facts unless they share the fact
// type deliberately.
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{m: make(map[factKey]Fact)}
}

// ObjectPath returns the stable intra-package path of a package-level
// object: "Name" for functions, types, vars, and consts; "Recv.Name" for
// methods. Objects facts cannot attach to (locals, struct fields,
// interface methods without a concrete receiver) return ok=false.
func ObjectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		recv := sig.Recv()
		if recv == nil {
			if o.Parent() != obj.Pkg().Scope() {
				return "", false // function literal's type, local helper
			}
			return o.Name(), true
		}
		named := namedRecv(recv.Type())
		if named == nil {
			return "", false
		}
		return named.Obj().Name() + "." + o.Name(), true
	case *types.TypeName, *types.Var, *types.Const:
		if obj.Parent() != obj.Pkg().Scope() {
			return "", false
		}
		return obj.Name(), true
	}
	return "", false
}

// namedRecv unwraps a method receiver type to its named type.
func namedRecv(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// ExportObjectFact records fact about obj, which must be a package-level
// object of the package being analyzed. The fact type must be declared in
// the analyzer's FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		return
	}
	if obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact on object %s of foreign package %v", p.Analyzer.Name, obj.Name(), obj.Pkg()))
	}
	p.checkFactType(fact)
	path, ok := ObjectPath(obj)
	if !ok {
		panic(fmt.Sprintf("%s: ExportObjectFact on non-package-level object %s", p.Analyzer.Name, obj.Name()))
	}
	p.facts.m[factKey{p.Pkg.Path(), path, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact previously exported about obj (by this
// analyzer, on the pass that analyzed obj's package) into fact, reporting
// whether one was found. obj may belong to any package.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	p.checkFactType(fact)
	path, ok := ObjectPath(obj)
	if !ok {
		return false
	}
	stored, ok := p.facts.m[factKey{obj.Pkg().Path(), path, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// checkFactType panics unless the analyzer declared fact's type in
// FactTypes — the same registration x/tools requires, so a typo'd fact
// type fails loudly instead of silently never matching.
func (p *Pass) checkFactType(fact Fact) {
	t := reflect.TypeOf(fact)
	if t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("%s: fact type %T is not a pointer", p.Analyzer.Name, fact))
	}
	for _, ft := range p.Analyzer.FactTypes {
		if reflect.TypeOf(ft) == t {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", p.Analyzer.Name, fact))
}
