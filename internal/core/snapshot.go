package core

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Save implements checkpoint.Snapshotter, writing the THT rows, the PHT
// entries (tags, MRU target lists, recency), the correlation clock, and the
// predictor counters.
func (t *TCP) Save(w *checkpoint.Writer) error {
	w.Section("tcp")
	w.I64(t.clock)
	w.U32(uint32(len(t.tht)))
	w.U32(uint32(t.cfg.HistoryDepth))
	for _, row := range t.tht {
		for _, tag := range row {
			w.U64(tag)
		}
	}
	w.Ints(t.thtFill)
	w.U32(uint32(len(t.pht)))
	for i := range t.pht {
		e := &t.pht[i]
		w.U64(e.tag)
		w.I64(e.used)
		w.Bool(e.valid)
		w.U64s(e.targets)
	}
	for _, f := range t.st.fields() {
		w.U64(*f)
	}
	return nil
}

// Restore implements checkpoint.Snapshotter. The TCP must be configured
// identically to the one that was saved.
func (t *TCP) Restore(r *checkpoint.Reader) error {
	if err := r.Section("tcp"); err != nil {
		return err
	}
	t.clock = r.I64()
	rows, depth := int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if rows != len(t.tht) || depth != t.cfg.HistoryDepth {
		return fmt.Errorf("tcp: checkpoint THT %dx%d, want %dx%d",
			rows, depth, len(t.tht), t.cfg.HistoryDepth)
	}
	for _, row := range t.tht {
		for j := range row {
			row[j] = r.U64()
		}
	}
	r.ReadInts(t.thtFill)
	if n := int(r.U32()); r.Err() == nil && n != len(t.pht) {
		return fmt.Errorf("tcp: checkpoint PHT %d entries, want %d", n, len(t.pht))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range t.pht {
		e := &t.pht[i]
		e.tag = r.U64()
		e.used = r.I64()
		e.valid = r.Bool()
		e.targets = r.U64s()
		if len(e.targets) > t.cfg.Targets {
			return fmt.Errorf("tcp: PHT entry %d holds %d targets, max %d",
				i, len(e.targets), t.cfg.Targets)
		}
	}
	for _, f := range t.st.fields() {
		*f = r.U64()
	}
	return r.Err()
}
