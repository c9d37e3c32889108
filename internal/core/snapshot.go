package core

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Snapshot implements checkpoint.Snapshotter: the THT rows, the PHT's
// materialised sets (tags, MRU target lists, recency), the correlation
// clock, and the predictor counters. Decoding requires an identically-
// configured TCP; a THT fill outside [0, k], a PHT set index out of order
// or range, a tag wider than TagBits or more than Targets targets is
// corrupt.
func (t *TCP) Snapshot(c *checkpoint.Codec) {
	c.Section("tcp")
	c.I64(&t.clock)
	rows, depth := uint32(len(t.thtFill)), uint32(t.cfg.HistoryDepth)
	c.U32(&rows)
	c.U32(&depth)
	if int(rows) != len(t.thtFill) || int(depth) != t.cfg.HistoryDepth {
		c.Fail(fmt.Errorf("tcp: checkpoint THT %dx%d, want %dx%d", rows, depth, len(t.thtFill), t.cfg.HistoryDepth))
	}
	for i := range t.tht {
		c.U64(&t.tht[i])
	}
	c.Ints(t.thtFill)
	for i, f := range t.thtFill {
		if f < 0 || f > t.cfg.HistoryDepth {
			c.Fail(fmt.Errorf("%w: tcp: THT row %d fill %d outside [0, %d]", checkpoint.ErrCorrupt, i, f, t.cfg.HistoryDepth))
		}
	}
	t.pht.Snapshot(c)
	for _, f := range t.st.fields() {
		c.U64(f)
	}
}
