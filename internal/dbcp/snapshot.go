package dbcp

import "tagprefetch/internal/checkpoint"

// Snapshot implements checkpoint.Snapshotter: the shadow directory,
// correlation table, clock, and statistics.
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
	c.U64(&d.stats.Accesses)
	c.U64(&d.stats.Misses)
	c.U64(&d.stats.Deaths)
	c.U64(&d.stats.Hits)
	c.U64(&d.stats.Predictions)
}
