package branch

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Branch predictors are embedded CPU state: the core writes them inside its
// own checkpoint section (prefixed with the predictor name for structural
// validation), so the Snapshot methods here code raw fields without
// opening sections. Decoding assumes an identically-configured predictor
// and only loads dynamic state, validating table lengths and counter
// ranges.

// counters codes a 2-bit counter table as a length-prefixed byte run; a
// decoded value outside 0..3 is rejected.
func counters(c *checkpoint.Codec, t []counter) {
	c.Len(len(t))
	for i := range t {
		c.U8((*uint8)(&t[i]))
		if t[i] > 3 {
			c.Fail(fmt.Errorf("branch: counter value %d out of 2-bit range", t[i]))
		}
	}
}

// Snapshot implements checkpoint.Snapshotter.
func (b *Bimodal) Snapshot(c *checkpoint.Codec) {
	counters(c, b.table)
}

// Snapshot implements checkpoint.Snapshotter.
func (g *GShare) Snapshot(c *checkpoint.Codec) {
	counters(c, g.table)
	c.U64(&g.history)
	if max := uint64(1)<<g.histLen - 1; g.history&^max != 0 {
		c.Fail(fmt.Errorf("branch: gshare history %#x exceeds %d bits", g.history, g.histLen))
	}
}

// Snapshot implements checkpoint.Snapshotter.
func (p *PAg) Snapshot(c *checkpoint.Codec) {
	c.U64s(p.histories)
	counters(c, p.table)
}

// Snapshot implements checkpoint.Snapshotter: the chooser, then both
// component predictors.
func (c *Combining) Snapshot(cd *checkpoint.Codec) {
	counters(cd, c.chooser)
	c.a.Snapshot(cd)
	c.b.Snapshot(cd)
}

// Snapshot implements checkpoint.Snapshotter; Static has no dynamic state.
func (s Static) Snapshot(*checkpoint.Codec) {}
