package core

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Save implements checkpoint.Snapshotter, writing the THT rows, the PHT
// entries (tags, MRU target lists, recency), the correlation clock, and the
// predictor counters.
func (t *TCP) Save(w *checkpoint.Writer) {
	w.Section("tcp")
	w.I64(t.clock)
	w.U32(uint32(len(t.thtFill)))
	w.U32(uint32(t.cfg.HistoryDepth))
	for _, tag := range t.tht {
		w.U64(tag)
	}
	w.Ints(t.thtFill)
	ways := t.cfg.PHTWays
	w.U32(uint32(len(t.dir) * ways))
	for _, f := range t.dir {
		if f == 0 {
			for range ways { // a set never allocated saves as all-zero records
				w.U64(0)
				w.I64(0)
				w.Bool(false)
				w.U64s(nil)
			}
			continue
		}
		base := int(f-1) * ways
		for i := base; i < base+ways; i++ {
			e := t.pht[i]
			w.U64(uint64(e.tag))
			w.I64(e.used)
			w.Bool(e.valid)
			w.U64s(t.entryTargets(i))
		}
	}
	for _, f := range t.st.fields() {
		w.U64(*f)
	}
}

// Restore implements checkpoint.Snapshotter. The TCP must be configured
// identically to the one that was saved. A THT fill outside [0, k], a tag
// wider than TagBits or more than Targets targets is corrupt.
func (t *TCP) Restore(r *checkpoint.Reader) error {
	if err := r.Section("tcp"); err != nil {
		return err
	}
	t.clock = r.I64()
	rows, depth := int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if rows != len(t.thtFill) || depth != t.cfg.HistoryDepth {
		return fmt.Errorf("tcp: checkpoint THT %dx%d, want %dx%d",
			rows, depth, len(t.thtFill), t.cfg.HistoryDepth)
	}
	for i := range t.tht {
		t.tht[i] = r.U64()
	}
	r.ReadInts(t.thtFill)
	for i, f := range t.thtFill {
		if f < 0 || f > depth {
			return fmt.Errorf("%w: tcp: THT row %d fill %d outside [0, %d]", checkpoint.ErrCorrupt, i, f, depth)
		}
	}
	ways := t.cfg.PHTWays
	if n := int(r.U32()); r.Err() == nil && n != len(t.dir)*ways {
		return fmt.Errorf("tcp: checkpoint PHT %d entries, want %d", n, len(t.dir)*ways)
	}
	if err := r.Err(); err != nil {
		return err
	}
	// Only sets with a non-zero record are materialised: an all-zero set
	// probes and allocates exactly like one never allocated.
	t.clearPHT()
	list := make([]uint64, t.cfg.Targets)
	for i := range len(t.dir) * ways {
		tag, used, valid := r.U64(), r.I64(), r.Bool()
		n := r.ReadU64sUpTo(list)
		if err := r.Err(); err != nil {
			return fmt.Errorf("tcp: PHT entry %d: %w", i, err)
		}
		if tag > t.tagMask {
			return fmt.Errorf("%w: tcp: PHT entry %d tag %#x wider than %d bits", checkpoint.ErrCorrupt, i, tag, t.cfg.TagBits)
		}
		e := phtEntry{used: used, tag: uint32(tag), n: uint8(n), valid: valid}
		if e == (phtEntry{}) {
			continue
		}
		j := t.frame(uint64(i/ways))*ways + i%ways
		t.pht[j] = e
		copy(t.targets[j*t.cfg.Targets:], list[:n])
	}
	for _, f := range t.st.fields() {
		*f = r.U64()
	}
	return r.Err()
}
