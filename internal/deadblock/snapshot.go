package deadblock

import (
	"fmt"
	"slices"

	"tagprefetch/internal/checkpoint"
)

// Snapshot implements checkpoint.Snapshotter. The ring already holds the
// live table's keys in insertion order (that order IS the FIFO replacement
// state), so coding ring entries with their live times captures the map
// deterministically without sorting; decoding rebuilds the map by
// replaying the ring insertions in order.
func (p *Predictor) Snapshot(c *checkpoint.Codec) {
	c.Section("deadblock")
	c.Int(&p.ringHead)
	n := c.Count(len(p.ring), p.cfg.Entries)
	if p.ringHead < 0 || n > 0 && p.ringHead >= p.cfg.Entries || n == 0 && p.ringHead != 0 {
		c.Fail(fmt.Errorf("deadblock: checkpoint ring head %d out of range", p.ringHead))
	}
	p.ring = slices.Grow(p.ring[:0], n)[:n]
	if c.Decoding() {
		p.live = make(map[uint64]int64, p.cfg.Entries)
	}
	for i := range p.ring {
		c.U64(&p.ring[i])
		lt := p.live[p.ring[i]]
		c.I64(&lt)
		p.live[p.ring[i]] = lt
	}
}
