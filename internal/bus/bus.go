// Package bus models shared-bus contention with occupancy bookkeeping.
//
// The paper stresses that "contention can have important influence on
// performance" and incorporates a bus-contention model at both the L1/L2
// and memory buses (Section 2, crediting the detailed bus models of the
// DBCP work). This package provides that model: a bus has a width in bytes
// per core cycle, and every transfer occupies it for ceil(bytes/width)
// cycles. Requests that arrive while the bus is busy queue behind it.
package bus

import "fmt"

// Bus is a shared, in-order bus. The zero value is unusable; use New.
type Bus struct {
	bytesPerCycle int // bandwidth configuration fixed at construction, not dynamic state

	freeAt int64 // first cycle at which the bus is idle

	section string // checkpoint section name, "bus." + name; last, clear of the transfer path's fields
}

// New creates a bus transferring width bytes per core cycle.
// Width must be positive.
func New(name string, width int) *Bus {
	if width <= 0 {
		panic(fmt.Sprintf("bus: non-positive width %d", width))
	}
	return &Bus{section: "bus." + name, bytesPerCycle: width}
}

// Transfer schedules a transfer of n bytes requested at cycle `now` and
// returns the cycle at which the transfer completes. The bus serialises
// transfers in request order; a request issued while the bus is busy waits.
func (b *Bus) Transfer(now int64, n int) int64 {
	if n <= 0 {
		return now
	}
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + int64((n+b.bytesPerCycle-1)/b.bytesPerCycle)
	return b.freeAt
}

// Quiesce discards any queue backlog by clamping the next-idle time to at
// most now. The functional fast-forward warmup advances one cycle per
// instruction, so queueing computed against that compressed clock
// compounds into a backlog far beyond the clock itself — an artifact of
// the fictitious clock, not simulated contention. The warmup/measure
// boundary quiesces the buses so the cycle-accurate measured window
// starts from an idle interconnect (docs/FASTFORWARD.md).
func (b *Bus) Quiesce(now int64) {
	if b.freeAt > now {
		b.freeAt = now
	}
}
