package prefetch

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"tagprefetch/internal/checkpoint"
)

// Every prefetcher opens a section named after its scheme so a checkpoint
// restored into a machine built with a different factory fails with a
// section-name mismatch instead of silently mis-parsing. Stateless schemes
// still write their (empty) section for the same structural validation.

// Snapshot implements checkpoint.Snapshotter.
func (None) Snapshot(c *checkpoint.Codec) {
	c.Section("prefetch.none")
}

// Snapshot implements checkpoint.Snapshotter.
func (p *NextLine) Snapshot(c *checkpoint.Codec) {
	c.Section("prefetch.nextline")
}

// Snapshot implements checkpoint.Snapshotter.
func (p *Stride) Snapshot(c *checkpoint.Codec) {
	c.Section("prefetch.stride")
	c.Len(len(p.entries))
	for i := range p.entries {
		e := &p.entries[i]
		c.U64(&e.pc)
		c.U64((*uint64)(&e.last))
		c.I64(&e.stride)
		c.U8(&e.state)
		c.Bool(&e.valid)
	}
}

// Snapshot implements checkpoint.Snapshotter.
func (p *StreamBuffers) Snapshot(c *checkpoint.Codec) {
	c.Section("prefetch.stream")
	c.I64(&p.clock)
	c.Len(len(p.buffers))
	for i := range p.buffers {
		b := &p.buffers[i]
		c.Bool(&b.valid)
		c.U64((*uint64)(&b.next))
		c.Int(&b.left)
		c.I64(&b.used)
	}
}

// Snapshot implements checkpoint.Snapshotter.
func (p *Markov) Snapshot(c *checkpoint.Codec) {
	c.Section("prefetch.markov")
	c.I64(&p.clock)
	c.U64((*uint64)(&p.last))
	c.Bool(&p.hasLast)
	c.Len(len(p.table) / p.ways)
	for i := range p.table {
		if i%p.ways == 0 {
			c.Len(p.ways)
		}
		e := &p.table[i]
		c.U64((*uint64)(&e.block))
		c.I64(&e.used)
		c.Bool(&e.valid)
		e.n = int32(c.Count(int(e.n), p.targets))
		succ := p.successors(i)
		for j := range succ {
			c.U64((*uint64)(&succ[j]))
		}
	}
}

// Snapshot implements checkpoint.Snapshotter. The PC index map is coded in
// ascending key order so the image is deterministic; decoding rebuilds it.
func (p *GHB) Snapshot(c *checkpoint.Codec) {
	c.Section("prefetch.ghb")
	c.Int(&p.head)
	c.Len(len(p.buffer))
	if p.head < 0 || p.head >= len(p.buffer) {
		c.Fail(fmt.Errorf("ghb: checkpoint head %d out of range", p.head))
	}
	for i := range p.buffer {
		e := &p.buffer[i]
		c.U64((*uint64)(&e.addr))
		c.Int(&e.prev)
		c.U64(&e.key)
		if e.prev < -1 || e.prev >= len(p.buffer) {
			c.Fail(fmt.Errorf("ghb: entry %d prev pointer %d out of range", i, e.prev))
		}
	}
	keys := make([]uint64, 0, len(p.index))
	for k := range p.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := c.Count(len(keys), math.MaxInt)
	keys = slices.Grow(keys[:0], n)[:n]
	if c.Decoding() {
		p.index = make(map[uint64]int, n)
	}
	for i := range keys {
		c.U64(&keys[i])
		pos := p.index[keys[i]]
		c.Int(&pos)
		if pos < 0 || pos >= len(p.buffer) {
			c.Fail(fmt.Errorf("ghb: index position %d out of range", pos))
		}
		p.index[keys[i]] = pos
	}
}

// Snapshot implements checkpoint.Snapshotter: the gate statistics and the
// criticality predictor, then the wrapped prefetcher's own section.
func (f *CriticalFiltered) Snapshot(c *checkpoint.Codec) {
	c.Section("prefetch.critfilter")
	c.U64(&f.suppressed)
	f.pred.Snapshot(c)
	f.inner.Snapshot(c)
}
