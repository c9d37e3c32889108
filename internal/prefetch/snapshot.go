package prefetch

import (
	"fmt"
	"sort"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
)

// Every prefetcher opens a section named after its scheme so a checkpoint
// restored into a machine built with a different factory fails with a
// section-name mismatch instead of silently mis-parsing. Stateless schemes
// still write their (empty) section for the same structural validation.

// Save implements checkpoint.Snapshotter.
func (None) Save(w *checkpoint.Writer) {
	w.Section("prefetch.none")
}

// Restore implements checkpoint.Snapshotter.
func (None) Restore(r *checkpoint.Reader) error {
	return r.Section("prefetch.none")
}

// Save implements checkpoint.Snapshotter.
func (p *NextLine) Save(w *checkpoint.Writer) {
	w.Section("prefetch.nextline")
}

// Restore implements checkpoint.Snapshotter.
func (p *NextLine) Restore(r *checkpoint.Reader) error {
	return r.Section("prefetch.nextline")
}

// Save implements checkpoint.Snapshotter.
func (p *Stride) Save(w *checkpoint.Writer) {
	w.Section("prefetch.stride")
	w.U32(uint32(len(p.entries)))
	for i := range p.entries {
		e := &p.entries[i]
		w.U64(e.pc)
		w.U64(uint64(e.last))
		w.I64(e.stride)
		w.U8(e.state)
		w.Bool(e.valid)
	}
}

// Restore implements checkpoint.Snapshotter.
func (p *Stride) Restore(r *checkpoint.Reader) error {
	if err := r.Section("prefetch.stride"); err != nil {
		return err
	}
	if n := int(r.U32()); r.Err() == nil && n != len(p.entries) {
		return fmt.Errorf("stride: checkpoint table %d entries, want %d", n, len(p.entries))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range p.entries {
		e := &p.entries[i]
		e.pc = r.U64()
		e.last = addr.Addr(r.U64())
		e.stride = r.I64()
		e.state = r.U8()
		e.valid = r.Bool()
	}
	return r.Err()
}

// Save implements checkpoint.Snapshotter.
func (p *StreamBuffers) Save(w *checkpoint.Writer) {
	w.Section("prefetch.stream")
	w.I64(p.clock)
	w.U32(uint32(len(p.buffers)))
	for i := range p.buffers {
		b := &p.buffers[i]
		w.Bool(b.valid)
		w.U64(uint64(b.next))
		w.Int(b.left)
		w.I64(b.used)
	}
}

// Restore implements checkpoint.Snapshotter.
func (p *StreamBuffers) Restore(r *checkpoint.Reader) error {
	if err := r.Section("prefetch.stream"); err != nil {
		return err
	}
	p.clock = r.I64()
	if n := int(r.U32()); r.Err() == nil && n != len(p.buffers) {
		return fmt.Errorf("stream: checkpoint %d buffers, want %d", n, len(p.buffers))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range p.buffers {
		b := &p.buffers[i]
		b.valid = r.Bool()
		b.next = addr.Addr(r.U64())
		b.left = r.Int()
		b.used = r.I64()
	}
	return r.Err()
}

// Save implements checkpoint.Snapshotter.
func (p *Markov) Save(w *checkpoint.Writer) {
	w.Section("prefetch.markov")
	w.I64(p.clock)
	w.U64(uint64(p.last))
	w.Bool(p.hasLast)
	w.U32(uint32(len(p.sets)))
	for _, set := range p.sets {
		w.U32(uint32(len(set)))
		for i := range set {
			e := &set[i]
			w.U64(uint64(e.block))
			w.I64(e.used)
			w.Bool(e.valid)
			w.U32(uint32(len(e.succ)))
			for _, s := range e.succ {
				w.U64(uint64(s))
			}
		}
	}
}

// Restore implements checkpoint.Snapshotter.
func (p *Markov) Restore(r *checkpoint.Reader) error {
	if err := r.Section("prefetch.markov"); err != nil {
		return err
	}
	p.clock = r.I64()
	p.last = addr.Addr(r.U64())
	p.hasLast = r.Bool()
	if n := int(r.U32()); r.Err() == nil && n != len(p.sets) {
		return fmt.Errorf("markov: checkpoint %d sets, want %d", n, len(p.sets))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for _, set := range p.sets {
		if n := int(r.U32()); r.Err() == nil && n != len(set) {
			return fmt.Errorf("markov: checkpoint %d ways, want %d", n, len(set))
		}
		for i := range set {
			e := &set[i]
			e.block = addr.Addr(r.U64())
			e.used = r.I64()
			e.valid = r.Bool()
			ns := int(r.U32())
			if r.Err() != nil {
				return r.Err()
			}
			if ns > p.targets {
				return fmt.Errorf("markov: entry holds %d successors, max %d", ns, p.targets)
			}
			e.succ = make([]addr.Addr, ns)
			for j := range e.succ {
				e.succ[j] = addr.Addr(r.U64())
			}
		}
	}
	return r.Err()
}

// Save implements checkpoint.Snapshotter. The PC index map is written in
// ascending key order so the image is deterministic.
func (p *GHB) Save(w *checkpoint.Writer) {
	w.Section("prefetch.ghb")
	w.Int(p.head)
	w.U32(uint32(len(p.buffer)))
	for i := range p.buffer {
		e := &p.buffer[i]
		w.U64(uint64(e.addr))
		w.Int(e.prev)
		w.U64(e.key)
	}
	keys := make([]uint64, 0, len(p.index))
	for k := range p.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.Int(p.index[k])
	}
}

// Restore implements checkpoint.Snapshotter.
func (p *GHB) Restore(r *checkpoint.Reader) error {
	if err := r.Section("prefetch.ghb"); err != nil {
		return err
	}
	head := r.Int()
	if n := int(r.U32()); r.Err() == nil && n != len(p.buffer) {
		return fmt.Errorf("ghb: checkpoint buffer %d entries, want %d", n, len(p.buffer))
	}
	if err := r.Err(); err != nil {
		return err
	}
	if head < 0 || head >= len(p.buffer) {
		return fmt.Errorf("ghb: checkpoint head %d out of range", head)
	}
	p.head = head
	for i := range p.buffer {
		e := &p.buffer[i]
		e.addr = addr.Addr(r.U64())
		e.prev = r.Int()
		e.key = r.U64()
		if e.prev < -1 || e.prev >= len(p.buffer) {
			return fmt.Errorf("ghb: entry %d prev pointer %d out of range", i, e.prev)
		}
	}
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	p.index = make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		k := r.U64()
		pos := r.Int()
		if r.Err() != nil {
			break
		}
		if pos < 0 || pos >= len(p.buffer) {
			return fmt.Errorf("ghb: index position %d out of range", pos)
		}
		p.index[k] = pos
	}
	return r.Err()
}

// Save implements checkpoint.Snapshotter: the gate statistics and the
// criticality predictor, then the wrapped prefetcher's own section.
func (f *CriticalFiltered) Save(w *checkpoint.Writer) {
	w.Section("prefetch.critfilter")
	w.U64(f.suppressed)
	f.pred.Save(w)
	f.inner.Save(w)
}

// Restore implements checkpoint.Snapshotter.
func (f *CriticalFiltered) Restore(r *checkpoint.Reader) error {
	if err := r.Section("prefetch.critfilter"); err != nil {
		return err
	}
	f.suppressed = r.U64()
	if err := f.pred.Restore(r); err != nil {
		return err
	}
	return f.inner.Restore(r)
}
