// Package sinkdep exports sink-forwarding helpers; detflow publishes
// SinkParams/TaintedReturn facts for them, consumed by sinkuse.
package sinkdep

import "tagprefetch/internal/checkpoint"

// Emit forwards v into the checkpoint image: SinkParams bit 1.
func Emit(c *checkpoint.Codec, v uint64) {
	c.U64(&v)
}

// Pick returns a map-order-dependent element: TaintedReturn.
func Pick(m map[uint64]int) uint64 {
	for k := range m {
		return k
	}
	return 0
}
