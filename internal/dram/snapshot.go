package dram

import "tagprefetch/internal/checkpoint"

// Save implements checkpoint.Snapshotter. The memory bus is owned (and
// checkpointed) by the memory system, so only the access counters live
// here.
func (m *Memory) Save(w *checkpoint.Writer) {
	w.Section("dram")
	w.U64(m.reads)
	w.U64(m.writes)
}

// Restore implements checkpoint.Snapshotter.
func (m *Memory) Restore(r *checkpoint.Reader) error {
	if err := r.Section("dram"); err != nil {
		return err
	}
	m.reads = r.U64()
	m.writes = r.U64()
	return r.Err()
}
