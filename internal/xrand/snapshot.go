package xrand

import "tagprefetch/internal/checkpoint"

// State returns the raw generator state.
func (r *Rand) State() uint64 { return r.s }

// Snapshot implements checkpoint.Snapshotter for the raw generator state:
// a decoded generator continues the exact stream the encoded one would
// have produced, with no remapping or scrambling as Seed applies. Rand is
// embedded state — owners (workload streams, generators) hold it inside
// their own sections, so no section is opened here.
func (r *Rand) Snapshot(c *checkpoint.Codec) {
	c.U64(&r.s)
}
