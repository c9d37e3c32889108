// Package telemetry stands in for internal/telemetry, whose own counters
// are the concurrent registry side: bumps inside it are not reported.
package telemetry

// Counter mimics telemetry.Counter.
type Counter struct{ v uint64 }

// Inc mimics the atomic increment.
func (c *Counter) Inc() { c.v++ }

// tick is hot and bumps its own package's counter: allowed.
//
//tcp:hotpath
func (c *Counter) tick() { c.Inc() }
