// Package sinkuse checks that detflow facts cross package boundaries:
// sinkdep's helpers carry SinkParams and TaintedReturn facts.
package sinkuse

import (
	"sinkdep"

	"tagprefetch/internal/checkpoint"
)

// launder pushes a map key through the dependency's forwarding helper.
func launder(c *checkpoint.Codec, m map[uint64]int) {
	for k := range m {
		sinkdep.Emit(c, k) // want `value derived from map iteration order flows into sinkdep\.Emit`
	}
}

// consume encodes the dependency's tainted pick.
func consume(c *checkpoint.Codec, m map[uint64]int) {
	v := sinkdep.Pick(m)
	c.U64(&v) // want `value derived from a nondeterministically-derived result of sinkdep\.Pick flows into checkpoint\.Codec\.U64`
}

// clean passes a deterministic value through the same helper: allowed.
func clean(c *checkpoint.Codec) {
	sinkdep.Emit(c, 42)
}
