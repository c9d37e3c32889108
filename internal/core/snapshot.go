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
	// The PHT codes only its materialised sets, in increasing set order:
	// a count, then each set's index and its PHTWays records. Decoding
	// materialises exactly the coded sets.
	ways := t.cfg.PHTWays
	c.Len(len(t.dir) * ways)
	if c.Decoding() {
		t.clearPHT()
	}
	set := -1
	for range c.Count(len(t.pht)/ways, len(t.dir)) {
		next := uint32(set + 1)
		for !c.Decoding() && t.dir[next] == 0 {
			next++
		}
		c.U32(&next)
		if int(next) <= set || int(next) >= len(t.dir) {
			c.Fail(fmt.Errorf("%w: tcp: PHT set %d after set %d of %d", checkpoint.ErrCorrupt, next, set, len(t.dir)))
		}
		if c.Err() != nil {
			break
		}
		set = int(next)
		base := t.frame(uint64(set)) * ways
		for j := base; j < base+ways; j++ {
			t.phtRecord(c, &t.pht[j], t.entryTargets(j))
		}
	}
	for _, f := range t.st.fields() {
		c.U64(f)
	}
}

// phtRecord codes one PHT way: its tag, recency, valid bit and MRU target
// list. Decoding fills targets' backing array, which must hold Targets
// slots, and sets e.n from the list.
func (t *TCP) phtRecord(c *checkpoint.Codec, e *phtEntry, targets []uint64) {
	c.U32(&e.tag)
	c.I64(&e.used)
	c.Bool(&e.valid)
	targets = targets[:c.Count(len(targets), t.cfg.Targets)]
	for k := range targets {
		c.U64(&targets[k])
	}
	if uint64(e.tag) > t.tagMask {
		c.Fail(fmt.Errorf("%w: tcp: PHT tag %#x wider than %d bits", checkpoint.ErrCorrupt, e.tag, t.cfg.TagBits))
	}
	if c.Decoding() {
		e.n = uint8(len(targets))
	}
}
