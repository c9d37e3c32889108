package dbcp

import "tagprefetch/internal/checkpoint"

// Snapshot implements checkpoint.Snapshotter: the shadow directory,
// correlation table and clock.
func (d *DBCP) Snapshot(c *checkpoint.Codec) {
	c.Section("dbcp")
	c.I64(&d.clock)
	c.Len(len(d.shadow))
	for i := range d.shadow {
		sh := &d.shadow[i]
		c.U64((*uint64)(&sh.block))
		c.U64(&sh.sig)
		c.Bool(&sh.valid)
	}
	d.table.Snapshot(c)
}
