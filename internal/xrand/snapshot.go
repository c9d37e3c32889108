package xrand

import "tagprefetch/internal/checkpoint"

// State returns the raw generator state for checkpointing.
func (r *Rand) State() uint64 { return r.s }

// SetState restores raw generator state captured by State. Unlike Seed it
// performs no remapping or scrambling: the next Uint64 continues the exact
// stream the captured generator would have produced.
func (r *Rand) SetState(s uint64) { r.s = s }

// Save writes the generator state into the current checkpoint section.
// Rand is embedded state — owners (workload streams, generators) hold it
// inside their own sections, so no section is opened here.
func (r *Rand) Save(w *checkpoint.Writer) {
	w.U64(r.s)
}

// Restore loads generator state written by Save.
func (r *Rand) Restore(rd *checkpoint.Reader) error {
	r.s = rd.U64()
	return rd.Err()
}
