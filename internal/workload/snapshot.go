package workload

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// The generator's static structure — loop body, slot-to-stream binding,
// branch periods, chase permutations — is rebuilt deterministically by
// New(spec, seed), so a checkpoint stores only the dynamic cursors. Restore
// therefore requires a generator freshly constructed from the same Spec and
// seed (which the sim machine guarantees); it validates the workload name
// and every structural length against that expectation.

// Per-stream type tags, written before each stream's cursor state so a
// structural mismatch fails loudly instead of mis-parsing.
const (
	streamTagSweep uint8 = iota + 1
	streamTagChase
	streamTagRandom
	streamTagColumn
	streamTagThrottled
)

// Save implements checkpoint.Snapshotter.
func (s *synth) Save(w *checkpoint.Writer) {
	w.Section("workload")
	w.String(s.spec.Name)
	w.U64(s.rng.State())
	w.Int(s.slotIdx)
	w.U64(s.icount)
	w.U64(s.lastLoad)
	w.U64s(s.lastOf)
	w.U32(uint32(len(s.branch)))
	for i := range s.branch {
		w.Int(s.branch[i].count)
	}
	w.U32(uint32(len(s.streams)))
	for _, st := range s.streams {
		st.save(w)
	}
}

// Restore implements checkpoint.Snapshotter.
func (s *synth) Restore(r *checkpoint.Reader) error {
	if err := r.Section("workload"); err != nil {
		return err
	}
	if name := r.String(); r.Err() == nil && name != s.spec.Name {
		return fmt.Errorf("workload: checkpoint for %q, generator is %q", name, s.spec.Name)
	}
	s.rng.SetState(r.U64())
	idx := r.Int()
	s.icount = r.U64()
	s.lastLoad = r.U64()
	r.ReadU64s(s.lastOf)
	if err := r.Err(); err != nil {
		return err
	}
	if idx < 0 || idx >= len(s.body) {
		return fmt.Errorf("workload: checkpoint slot index %d out of range", idx)
	}
	s.slotIdx = idx
	if n := int(r.U32()); r.Err() == nil && n != len(s.branch) {
		return fmt.Errorf("workload: checkpoint %d branch patterns, want %d", n, len(s.branch))
	}
	for i := range s.branch {
		s.branch[i].count = r.Int()
	}
	if n := int(r.U32()); r.Err() == nil && n != len(s.streams) {
		return fmt.Errorf("workload: checkpoint %d streams, want %d", n, len(s.streams))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for _, st := range s.streams {
		if err := st.restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// checkTag validates a stream's type tag on restore.
func checkTag(r *checkpoint.Reader, want uint8, kind string) error {
	got := r.U8()
	if err := r.Err(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("workload: checkpoint stream tag %d, want %s (%d)", got, kind, want)
	}
	return nil
}

func (t *throttled) save(w *checkpoint.Writer) {
	w.U8(streamTagThrottled)
	w.Int(t.count)
	w.U64(t.last)
	w.Bool(t.has)
	t.inner.save(w)
}

func (t *throttled) restore(r *checkpoint.Reader) error {
	if err := checkTag(r, streamTagThrottled, "throttled"); err != nil {
		return err
	}
	t.count = r.Int()
	t.last = r.U64()
	t.has = r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	return t.inner.restore(r)
}

func (s *sweepStream) save(w *checkpoint.Writer) {
	w.U8(streamTagSweep)
	w.U64(s.pos)
}

func (s *sweepStream) restore(r *checkpoint.Reader) error {
	if err := checkTag(r, streamTagSweep, "sweep"); err != nil {
		return err
	}
	pos := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if pos >= s.footprint {
		return fmt.Errorf("workload: sweep position %d beyond footprint %d", pos, s.footprint)
	}
	s.pos = pos
	return nil
}

func (c *chaseStream) save(w *checkpoint.Writer) {
	w.U8(streamTagChase)
	w.U32(c.cur)
}

func (c *chaseStream) restore(r *checkpoint.Reader) error {
	if err := checkTag(r, streamTagChase, "chase"); err != nil {
		return err
	}
	cur := r.U32()
	if err := r.Err(); err != nil {
		return err
	}
	if int(cur) >= len(c.succ) {
		return fmt.Errorf("workload: chase cursor %d beyond permutation of %d", cur, len(c.succ))
	}
	c.cur = cur
	return nil
}

func (s *randomStream) save(w *checkpoint.Writer) {
	w.U8(streamTagRandom)
	w.U64(s.r.State())
}

func (s *randomStream) restore(r *checkpoint.Reader) error {
	if err := checkTag(r, streamTagRandom, "random"); err != nil {
		return err
	}
	s.r.SetState(r.U64())
	return r.Err()
}

func (s *columnStream) save(w *checkpoint.Writer) {
	w.U8(streamTagColumn)
	w.U64(s.row)
	w.U64(s.col)
}

func (s *columnStream) restore(r *checkpoint.Reader) error {
	if err := checkTag(r, streamTagColumn, "column"); err != nil {
		return err
	}
	row, col := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if row >= s.rows || col >= s.cols {
		return fmt.Errorf("workload: column cursor (%d,%d) beyond (%d,%d)", row, col, s.rows, s.cols)
	}
	s.row, s.col = row, col
	return nil
}
