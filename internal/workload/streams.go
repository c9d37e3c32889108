package workload

import (
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/xrand"
)

// stream produces a deterministic address sequence. next returns the byte
// address and whether the access is address-dependent on the stream's
// previous access (true only for pointer chases). snapshot codes the
// stream's dynamic cursor only — structure (footprints, chase cycles)
// is rebuilt by New; see snapshot.go.
type stream interface {
	next() (addr uint64, chained bool)
	snapshot(c *checkpoint.Codec)
}

func newStream(ss StreamSpec, base uint64, r *xrand.Rand) stream {
	inner := newRawStream(ss, base, r)
	if ss.Every > 1 {
		return &throttled{inner: inner, every: ss.Every}
	}
	return inner
}

// throttled advances its inner stream on every Nth activation only,
// re-touching the previous address in between (mostly L1 hits), so a
// weight-1 stream can contribute an arbitrarily small miss rate.
type throttled struct {
	inner stream
	every int
	count int
	last  uint64
	has   bool
}

func (t *throttled) next() (uint64, bool) {
	t.count++
	if !t.has || t.count >= t.every {
		t.count = 0
		a, ch := t.inner.next()
		t.last = a
		t.has = true
		return a, ch
	}
	return t.last, false
}

func newRawStream(ss StreamSpec, base uint64, r *xrand.Rand) stream {
	switch ss.Kind {
	case SweepKind:
		return &sweepStream{base: base, footprint: ss.Footprint, stride: ss.Stride}
	case ChaseKind:
		return newChaseStream(ss, base, r)
	case RandomKind:
		return &randomStream{base: base, blocks: maxU64(ss.Footprint/ss.Block, 1), block: ss.Block, r: r}
	case ColumnKind:
		return &columnStream{
			base:      base,
			rowStride: ss.RowStride,
			rows:      ss.Rows,
			colBytes:  ss.Block,
			cols:      maxU64(ss.Footprint/(ss.RowStride*ss.Rows), 1),
		}
	case HotKind:
		fp := ss.Footprint
		if fp > 24*1024 { // keep hot loops inside the 32 KB L1
			fp = 24 * 1024
		}
		return &sweepStream{base: base, footprint: fp, stride: ss.Stride}
	default:
		panic("workload: unknown stream kind")
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// sweepStream walks [base, base+footprint) with a fixed stride, wrapping —
// the access pattern of dense array kernels (swim, mgrid, applu...). Every
// pass emits the same tag sequence into every cache set it crosses, which
// is the across-set sharing TCP-8K exploits.
type sweepStream struct {
	base      uint64
	footprint uint64
	stride    uint64
	pos       uint64
}

func (s *sweepStream) next() (uint64, bool) {
	a := s.base + s.pos
	s.pos += s.stride
	if s.pos >= s.footprint {
		s.pos = 0
	}
	return a, false
}

// chaseStream follows a fixed pseudo-random cyclic permutation of blocks —
// the linked-data access pattern of mcf/ammp. The cycle repeats, so per-set
// miss-tag sequences are repetitive, but each set sees its own private
// sequence: sharing a PHT across sets causes contention (the regime in
// which the paper finds TCP-8M beats TCP-8K). order holds the block
// indices in visiting order (4 B per block) and the walk reads it
// sequentially, wrapping from the last block to the first.
type chaseStream struct {
	base  uint64
	block uint64
	order []uint32 // block indices in visiting order, built by New
	pos   int      // index into order of the next block
}

func newChaseStream(ss StreamSpec, base uint64, r *xrand.Rand) *chaseStream {
	n := int(maxU64(ss.Footprint/ss.Block, 2))
	if n > 1<<22 {
		n = 1 << 22 // cap the cycle at 4M blocks
	}
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	xrand.Shuffle(r, order)
	return &chaseStream{base: base, block: ss.Block, order: order}
}

func (c *chaseStream) next() (uint64, bool) {
	a := c.base + uint64(c.order[c.pos])*c.block
	c.pos++
	if c.pos == len(c.order) {
		c.pos = 0
	}
	return a, true
}

// randomStream picks a uniformly random block each access — crafty/twolf's
// hash-table behaviour. Tags recur (the footprint is finite) but per-set
// sequences are unpredictable, defeating correlation prefetchers.
type randomStream struct {
	base   uint64
	blocks uint64
	block  uint64
	r      *xrand.Rand
}

func (s *randomStream) next() (uint64, bool) {
	return s.base + s.r.Uint64n(s.blocks)*s.block, false
}

// columnStream walks down a matrix column: consecutive accesses are
// RowStride bytes apart. With RowStride equal to the L1 way size (32 KiB),
// consecutive misses fall in the same cache set with tags differing by a
// constant — the per-set strided tag sequences of Figure 15.
type columnStream struct {
	base      uint64
	rowStride uint64
	rows      uint64
	colBytes  uint64
	cols      uint64
	row, col  uint64
}

func (s *columnStream) next() (uint64, bool) {
	a := s.base + s.row*s.rowStride + s.col*s.colBytes
	s.row++
	if s.row == s.rows {
		s.row = 0
		s.col++
		if s.col == s.cols {
			s.col = 0
		}
	}
	return a, false
}
