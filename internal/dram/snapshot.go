package dram

import "tagprefetch/internal/checkpoint"

// Snapshot implements checkpoint.Snapshotter. The memory bus is owned (and
// checkpointed) by the memory system, so only the access counters live
// here.
func (m *Memory) Snapshot(c *checkpoint.Codec) {
	c.Section("dram")
	c.U64(&m.reads)
	c.U64(&m.writes)
}
