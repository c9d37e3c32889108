// Package hotdep is the dependency side of the cross-package fixture:
// hotprop exports AllocSummary facts for these functions, and the hotuse
// fixture (analyzed afterwards with the same fact store) consumes them.
package hotdep

import "tagprefetch/internal/telemetry"

// AllocDo allocates and carries no marker.
func AllocDo() []byte {
	return make([]byte, 16)
}

// Chain allocates only through AllocDo.
func Chain() []byte {
	return AllocDo()
}

// Clean is allocation-free.
func Clean() int {
	return 0
}

// Fast is a hot function in its own right; hotalloc enforces its body.
//
//tcp:hotpath
func Fast() int {
	return 1
}

// Spill is a declared slow path.
//
//tcp:coldpath flushes a full buffer, guarded by the fill check at every call site
func Spill() []byte {
	return make([]byte, 64)
}

// Ring has a method with allocating behaviour, so method facts travel too.
type Ring struct {
	buf []byte
}

// Push allocates via append.
func (r *Ring) Push(b byte) {
	r.buf = append(r.buf, b)
}

// Len is clean.
func (r *Ring) Len() int {
	return len(r.buf)
}

// Tally bumps an atomic registry counter; the fact carries that to hotuse.
func Tally(c *telemetry.Counter) {
	c.Inc()
}
