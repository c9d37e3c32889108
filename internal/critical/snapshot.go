package critical

import "tagprefetch/internal/checkpoint"

// Save implements checkpoint.Snapshotter. The predictor is embedded CPU
// training state (owned by the critical-filtered prefetcher wrapper), so
// its fields are written raw into the owner's section.
func (p *Predictor) Save(w *checkpoint.Writer) {
	w.Bytes(p.counters)
	w.U64(p.trainings)
	w.U64(p.critical)
}

// Restore implements checkpoint.Snapshotter.
func (p *Predictor) Restore(r *checkpoint.Reader) error {
	r.ReadBytes(p.counters)
	p.trainings = r.U64()
	p.critical = r.U64()
	return r.Err()
}
