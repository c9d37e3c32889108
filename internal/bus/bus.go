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
	name          string
	bytesPerCycle int // bandwidth configuration fixed at construction, not dynamic state

	freeAt    int64 // first cycle at which the bus is idle
	busy      int64 // total busy cycles
	transfers uint64
	bytes     uint64
	waited    int64 // total queueing delay imposed on transfers

	section string // checkpoint section name, "bus." + name; last, clear of the transfer path's fields
}

// New creates a bus transferring width bytes per core cycle.
// Width must be positive.
func New(name string, width int) *Bus {
	if width <= 0 {
		panic(fmt.Sprintf("bus: non-positive width %d", width))
	}
	return &Bus{name: name, section: "bus." + name, bytesPerCycle: width}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

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
	cycles := int64((n + b.bytesPerCycle - 1) / b.bytesPerCycle)
	done := start + cycles
	b.waited += start - now
	b.busy += cycles
	b.freeAt = done
	b.transfers++
	b.bytes += uint64(n)
	return done
}

// Quiesce discards any queue backlog by clamping the next-idle time to at
// most now. The functional fast-forward warmup advances one cycle per
// instruction, so queueing computed against that compressed clock
// compounds into a backlog far beyond the clock itself — an artifact of
// the fictitious clock, not simulated contention. The warmup/measure
// boundary quiesces the buses so the cycle-accurate measured window
// starts from an idle interconnect (docs/FASTFORWARD.md). Activity
// counters are untouched.
func (b *Bus) Quiesce(now int64) {
	if b.freeAt > now {
		b.freeAt = now
	}
}

// Stats summarises bus activity.
type Stats struct {
	Name        string
	Transfers   uint64
	Bytes       uint64
	BusyCycles  int64
	WaitCycles  int64 // cumulative queueing delay
	Utilization float64
}

// Stats returns activity counters; horizon is the total simulated cycles
// used to compute utilisation (0 yields utilisation 0).
func (b *Bus) Stats(horizon int64) Stats {
	s := Stats{
		Name:       b.name,
		Transfers:  b.transfers,
		Bytes:      b.bytes,
		BusyCycles: b.busy,
		WaitCycles: b.waited,
	}
	if horizon > 0 {
		s.Utilization = float64(b.busy) / float64(horizon)
	}
	return s
}
