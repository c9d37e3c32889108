package sim

import (
	"reflect"
	"strconv"
	"unsafe"
)

// WalkGraph calls visit for every value reachable from root through
// pointers, interfaces, struct fields (exported or not), slices, arrays
// and map values, with a path naming it from root, and descends below a
// value only if visit returns true. Addressable values are passed
// settable. Each pointer target is visited once. Below a value whose type
// holds no pointer, interface, map or slice the walk stops, since nothing
// there can reach a component: the elements of a slice, array or map of
// such values are not visited, and sync and sync/atomic internals are
// never entered. The runtime gates use it to find the machine's
// components and metrics without naming them.
func WalkGraph(root reflect.Value, visit func(v reflect.Value, path string) bool) {
	w := &walker{seen: map[ptrKey]bool{}, visit: visit}
	w.walk(root, "")
}

type ptrKey struct {
	p uintptr
	t reflect.Type
}

type walker struct {
	seen  map[ptrKey]bool
	visit func(reflect.Value, string) bool
}

func (w *walker) walk(v reflect.Value, path string) {
	if !v.IsValid() {
		return
	}
	if v.CanAddr() {
		v = settable(v)
	}
	if !w.visit(v, path) || !holdsRefs(v.Type()) {
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || w.seenPtr(v.Pointer(), v.Type()) {
			return
		}
		w.walk(v.Elem(), path)
	case reflect.Interface:
		w.walk(v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		if v.IsNil() || w.seenPtr(v.Pointer(), v.Type()) {
			return
		}
		fallthrough
	case reflect.Array:
		if !holdsRefs(v.Type().Elem()) {
			return
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), path+"["+strconv.Itoa(i)+"]")
		}
	case reflect.Map:
		if !holdsRefs(v.Type().Elem()) {
			return
		}
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Value(), path+"[]")
		}
	}
}

func (w *walker) seenPtr(p uintptr, t reflect.Type) bool {
	k := ptrKey{p, t}
	if w.seen[k] {
		return true
	}
	w.seen[k] = true
	return false
}

var refsMemo = map[reflect.Type]bool{}

// holdsRefs reports whether values of t can reach other values: whether t
// holds a pointer, interface, slice or map outside sync and sync/atomic.
func holdsRefs(t reflect.Type) bool {
	if t.PkgPath() == "sync" || t.PkgPath() == "sync/atomic" {
		return false
	}
	if r, ok := refsMemo[t]; ok {
		return r
	}
	refsMemo[t] = true // provisional, for recursive types
	r := false
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		r = true
	case reflect.Array:
		r = t.Len() > 0 && holdsRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField() && !r; i++ {
			r = holdsRefs(t.Field(i).Type)
		}
	}
	refsMemo[t] = r
	return r
}

// settable returns an addressable v as a settable value, unexported
// fields included.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
