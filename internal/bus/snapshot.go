package bus

import "tagprefetch/internal/checkpoint"

// Snapshot implements checkpoint.Snapshotter: occupancy state and
// statistics, in a section named after the bus.
func (b *Bus) Snapshot(c *checkpoint.Codec) {
	c.Section(b.section)
	c.I64(&b.freeAt)
	c.I64(&b.busy)
	c.U64(&b.transfers)
	c.U64(&b.bytes)
	c.I64(&b.waited)
}
