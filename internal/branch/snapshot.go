package branch

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Branch predictors are embedded CPU state: the core writes them inside its
// own checkpoint section (prefixed with the predictor name for structural
// validation), so the Save/Restore methods here emit raw fields without
// opening sections. Restore assumes an identically-configured predictor and
// only loads dynamic state, validating table lengths and counter ranges.

// saveCounters writes a 2-bit counter table as a length-prefixed byte run.
func saveCounters(w *checkpoint.Writer, t []counter) {
	w.U32(uint32(len(t)))
	for _, c := range t {
		w.U8(uint8(c))
	}
}

// restoreCounters loads a counter table saved by saveCounters into t,
// requiring an exact length match and in-range (0..3) values.
func restoreCounters(r *checkpoint.Reader, t []counter) error {
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(t) {
		return fmt.Errorf("branch: counter table length %d, want %d", n, len(t))
	}
	for i := range t {
		v := r.U8()
		if v > 3 {
			return fmt.Errorf("branch: counter value %d out of 2-bit range", v)
		}
		t[i] = counter(v)
	}
	return r.Err()
}

// Save implements checkpoint.Snapshotter.
func (b *Bimodal) Save(w *checkpoint.Writer) {
	saveCounters(w, b.table)
}

// Restore implements checkpoint.Snapshotter.
func (b *Bimodal) Restore(r *checkpoint.Reader) error {
	return restoreCounters(r, b.table)
}

// Save implements checkpoint.Snapshotter.
func (g *GShare) Save(w *checkpoint.Writer) {
	saveCounters(w, g.table)
	w.U64(g.history)
}

// Restore implements checkpoint.Snapshotter.
func (g *GShare) Restore(r *checkpoint.Reader) error {
	if err := restoreCounters(r, g.table); err != nil {
		return err
	}
	h := r.U64()
	if max := uint64(1)<<g.histLen - 1; h&^max != 0 {
		return fmt.Errorf("branch: gshare history %#x exceeds %d bits", h, g.histLen)
	}
	g.history = h
	return r.Err()
}

// Save implements checkpoint.Snapshotter.
func (p *PAg) Save(w *checkpoint.Writer) {
	w.U64s(p.histories)
	saveCounters(w, p.table)
}

// Restore implements checkpoint.Snapshotter.
func (p *PAg) Restore(r *checkpoint.Reader) error {
	r.ReadU64s(p.histories)
	if err := r.Err(); err != nil {
		return err
	}
	return restoreCounters(r, p.table)
}

// Save implements checkpoint.Snapshotter: the chooser, then both
// component predictors.
func (c *Combining) Save(w *checkpoint.Writer) {
	saveCounters(w, c.chooser)
	c.a.Save(w)
	c.b.Save(w)
}

// Restore implements checkpoint.Snapshotter.
func (c *Combining) Restore(r *checkpoint.Reader) error {
	if err := restoreCounters(r, c.chooser); err != nil {
		return err
	}
	if err := c.a.Restore(r); err != nil {
		return err
	}
	return c.b.Restore(r)
}

// Save implements checkpoint.Snapshotter; Static has no dynamic state.
func (s Static) Save(*checkpoint.Writer) {}

// Restore implements checkpoint.Snapshotter.
func (s Static) Restore(*checkpoint.Reader) error { return nil }
