package critical

import "tagprefetch/internal/checkpoint"

// Snapshot implements checkpoint.Snapshotter. The predictor is embedded
// CPU training state (owned by the critical-filtered prefetcher wrapper),
// so its fields are written raw into the owner's section.
func (p *Predictor) Snapshot(c *checkpoint.Codec) {
	c.Bytes(p.counters)
	c.U64(&p.trainings)
}
