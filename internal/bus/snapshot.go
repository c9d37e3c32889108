package bus

import "tagprefetch/internal/checkpoint"

// Save implements checkpoint.Snapshotter, writing occupancy state and
// statistics into a section named after the bus.
func (b *Bus) Save(w *checkpoint.Writer) {
	w.Section("bus." + b.name)
	w.I64(b.freeAt)
	w.I64(b.busy)
	w.U64(b.transfers)
	w.U64(b.bytes)
	w.I64(b.waited)
}

// Restore implements checkpoint.Snapshotter.
func (b *Bus) Restore(r *checkpoint.Reader) error {
	if err := r.Section("bus." + b.name); err != nil {
		return err
	}
	b.freeAt = r.I64()
	b.busy = r.I64()
	b.transfers = r.U64()
	b.bytes = r.U64()
	b.waited = r.I64()
	return r.Err()
}
