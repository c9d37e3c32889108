package bus

import "tagprefetch/internal/checkpoint"

// Snapshot implements checkpoint.Snapshotter: the next-free cycle, in a
// section named after the bus.
func (b *Bus) Snapshot(c *checkpoint.Codec) {
	c.Section(b.section)
	c.I64(&b.freeAt)
}
