package workload

import (
	"fmt"
	"slices"

	"tagprefetch/internal/checkpoint"
)

// The generator's static structure — loop body, slot-to-stream binding,
// branch periods, chase cycles — is rebuilt deterministically by
// New(spec, seed), so a checkpoint stores only the dynamic cursors. Decoding
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

// Snapshot implements checkpoint.Snapshotter.
func (s *synth) Snapshot(c *checkpoint.Codec) {
	c.Section("workload")
	name := s.spec.Name
	c.String(&name)
	if name != s.spec.Name {
		c.Fail(fmt.Errorf("workload: checkpoint for %q, generator is %q", name, s.spec.Name))
	}
	s.rng.Snapshot(c)
	c.Int(&s.slotIdx)
	c.U64(&s.icount)
	c.U64(&s.lastLoad)
	c.U64s(s.lastOf)
	if s.slotIdx < 0 || s.slotIdx >= len(s.body) {
		c.Fail(fmt.Errorf("workload: checkpoint slot index %d out of range", s.slotIdx))
	}
	c.Len(len(s.branch))
	for i := range s.branch {
		c.Int(&s.branch[i].count)
	}
	c.Len(len(s.streams))
	for _, st := range s.streams {
		st.snapshot(c)
	}
}

// streamTag codes a stream's type tag; decoding requires want.
func streamTag(c *checkpoint.Codec, want uint8, kind string) {
	got := want
	c.U8(&got)
	if got != want {
		c.Fail(fmt.Errorf("workload: checkpoint stream tag %d, want %s (%d)", got, kind, want))
	}
}

func (t *throttled) snapshot(c *checkpoint.Codec) {
	streamTag(c, streamTagThrottled, "throttled")
	c.Int(&t.count)
	c.U64(&t.last)
	c.Bool(&t.has)
	t.inner.snapshot(c)
}

func (s *sweepStream) snapshot(c *checkpoint.Codec) {
	streamTag(c, streamTagSweep, "sweep")
	c.U64(&s.pos)
	if s.pos >= s.footprint {
		c.Fail(fmt.Errorf("workload: sweep position %d beyond footprint %d", s.pos, s.footprint))
	}
}

// The chase section codes the block index at the cursor, order[pos], not
// pos itself: the image names where the walk is, whatever the cycle's
// storage, and version 4 images keep their bytes. Decoding scans the cycle
// for that block (O(n), n ≤ 80 k blocks in the catalog); a block outside
// the cycle fails with a *ChaseCursorError.
func (c *chaseStream) snapshot(cd *checkpoint.Codec) {
	streamTag(cd, streamTagChase, "chase")
	blk := c.order[c.pos]
	cd.U32(&blk)
	if !cd.Decoding() || cd.Err() != nil {
		return
	}
	pos := slices.Index(c.order, blk)
	if pos < 0 {
		cd.Fail(&ChaseCursorError{Block: blk, Blocks: len(c.order)})
		return
	}
	c.pos = pos
}

// ChaseCursorError reports a checkpoint whose chase cursor names a block
// beyond the restoring stream's cycle.
type ChaseCursorError struct {
	Block  uint32 // the decoded block index
	Blocks int    // the blocks in the restoring stream's cycle
}

func (e *ChaseCursorError) Error() string {
	return fmt.Sprintf("workload: chase cursor %d beyond permutation of %d", e.Block, e.Blocks)
}

func (s *randomStream) snapshot(c *checkpoint.Codec) {
	streamTag(c, streamTagRandom, "random")
	s.r.Snapshot(c)
}

func (s *columnStream) snapshot(c *checkpoint.Codec) {
	streamTag(c, streamTagColumn, "column")
	c.U64(&s.row)
	c.U64(&s.col)
	if s.row >= s.rows || s.col >= s.cols {
		c.Fail(fmt.Errorf("workload: column cursor (%d,%d) beyond (%d,%d)", s.row, s.col, s.rows, s.cols))
	}
}
