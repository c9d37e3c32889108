// Package dram models main memory as a fixed-latency device behind the
// L2/memory bus, matching Table 1 of the paper (70-cycle memory latency).
package dram

import "tagprefetch/internal/bus"

// Memory is the main-memory model. It holds no dynamic state, so it is not
// checkpointed: its bus is, through the memsys walk. The zero value is
// unusable; use New.
type Memory struct {
	latency int64    // access-latency configuration fixed at construction
	bus     *bus.Bus // wiring
}

// New creates a memory with the given access latency (core cycles) whose
// data transfers ride the provided memory bus. The bus may be nil, in which
// case transfers are unconstrained (used by ideal-memory experiments).
func New(latency int64, b *bus.Bus) *Memory {
	if latency < 0 {
		latency = 0
	}
	return &Memory{latency: latency, bus: b}
}

// Read returns the cycle at which a block of n bytes requested at cycle now
// is fully delivered: access latency plus the bus transfer of the block.
func (m *Memory) Read(now int64, n int) int64 {
	ready := now + m.latency
	if m.bus != nil {
		ready = m.bus.Transfer(ready, n)
	}
	return ready
}

// Write models a write-back of n bytes issued at cycle now. Write-backs
// occupy the bus (delaying later reads) but the requester does not wait, so
// only the bus occupancy matters; the returned cycle is when the transfer
// completes.
func (m *Memory) Write(now int64, n int) int64 {
	if m.bus != nil {
		return m.bus.Transfer(now, n)
	}
	return now
}
