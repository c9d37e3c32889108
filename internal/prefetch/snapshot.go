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
	p.table.Snapshot(c)
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

// Snapshot codes the table inside its owner's section: the table's size in
// ways (a geometry check), then only its materialised sets, in increasing
// set order, as a count and each set's U32 index and its ways' records. A
// record is the key (a u32 when keyMask fits in 32 bits, else a u64), the
// recency, the valid bit and the MRU target list. Decoding clears the
// table and materialises exactly the coded sets; a set index out of order
// or range, a key wider than keyMask or more than Targets targets is
// corrupt.
func (t *Table[K]) Snapshot(c *checkpoint.Codec) {
	c.Len(t.sets * t.nways)
	if c.Decoding() {
		t.clear()
	}
	set := -1
	for range c.Count(len(t.ways)/t.nways, t.sets) {
		next := uint32(set + 1)
		for !c.Decoding() && t.dir[next] == 0 {
			next++
		}
		c.U32(&next)
		if int(next) <= set || int(next) >= t.sets {
			c.Fail(fmt.Errorf("%w: table set %d after set %d of %d", checkpoint.ErrCorrupt, next, set, t.sets))
		}
		if c.Err() != nil {
			break
		}
		set = int(next)
		base := t.frame(uint64(set)) * t.nways
		for i := base; i < base+t.nways; i++ {
			t.record(c, i)
		}
	}
}

// record codes way i. Decoding fills the way's target slots and sets its
// live count from the list.
func (t *Table[K]) record(c *checkpoint.Codec, i int) {
	w := &t.ways[i]
	if uint64(t.keyMask) <= math.MaxUint32 {
		key := uint32(w.key)
		c.U32(&key)
		w.key = K(key)
	} else {
		key := uint64(w.key)
		c.U64(&key)
		w.key = K(key)
	}
	c.I64(&w.used)
	c.Bool(&w.valid)
	targets := t.targets[i*t.ntargets:][:c.Count(int(w.n), t.ntargets)]
	for k := range targets {
		c.U64(&targets[k])
	}
	if w.key > t.keyMask {
		c.Fail(fmt.Errorf("%w: table key %#x outside mask %#x", checkpoint.ErrCorrupt, w.key, t.keyMask))
	}
	w.n = uint8(len(targets))
}
