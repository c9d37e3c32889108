package core

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Snapshot implements checkpoint.Snapshotter: the THT rows, the PHT
// entries (tags, MRU target lists, recency), the correlation clock, and
// the predictor counters. Decoding requires an identically-configured TCP;
// a THT fill outside [0, k], a tag wider than TagBits or more than Targets
// targets is corrupt.
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
	ways := t.cfg.PHTWays
	c.Len(len(t.dir) * ways)
	if c.Decoding() {
		// Only sets with a non-zero record are materialised: an all-zero
		// set probes and allocates exactly like one never allocated.
		t.clearPHT()
		list := make([]uint64, t.cfg.Targets)
		for i := range len(t.dir) * ways {
			var e phtEntry
			targets := t.phtRecord(c, &e, list[:0])
			if e == (phtEntry{}) {
				continue
			}
			j := t.frame(uint64(i/ways))*ways + i%ways
			t.pht[j] = e
			copy(t.targets[j*t.cfg.Targets:], targets)
		}
	} else {
		for _, f := range t.dir {
			for w := range ways {
				var e phtEntry // a set never allocated encodes as all-zero records
				var targets []uint64
				if f != 0 {
					j := int(f-1)*ways + w
					e, targets = t.pht[j], t.entryTargets(j)
				}
				t.phtRecord(c, &e, targets)
			}
		}
	}
	for _, f := range t.st.fields() {
		c.U64(f)
	}
}

// phtRecord codes one PHT way: its tag (as a u64), recency, valid bit and
// MRU target list, and returns the list. Decoding fills targets' backing
// array, which must hold Targets slots, and sets e.n from the list.
func (t *TCP) phtRecord(c *checkpoint.Codec, e *phtEntry, targets []uint64) []uint64 {
	tag := uint64(e.tag)
	c.U64(&tag)
	c.I64(&e.used)
	c.Bool(&e.valid)
	targets = targets[:c.Count(len(targets), t.cfg.Targets)]
	for k := range targets {
		c.U64(&targets[k])
	}
	if tag > t.tagMask {
		c.Fail(fmt.Errorf("%w: tcp: PHT tag %#x wider than %d bits", checkpoint.ErrCorrupt, tag, t.cfg.TagBits))
	}
	e.tag, e.n = uint32(tag), uint8(len(targets))
	return targets
}
