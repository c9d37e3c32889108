// Package bump exercises the counter contract: no atomic
// (*telemetry.Counter).Inc/Add reachable from a //tcp:hotpath function.
package bump

import "tagprefetch/internal/telemetry"

type cache struct {
	hits   *telemetry.Counter
	misses uint64
	pub    telemetry.Mirror
}

// count bumps; it is not hot, so the bump is reported where hot code
// calls it.
func (c *cache) count() { c.hits.Inc() }

// chain reaches the bump through count.
func (c *cache) chain() { c.count() }

// slow is a justified slow path for allocation, but no exemption for a
// locked instruction.
//
//tcp:coldpath runs once per miss
func (c *cache) slow() { c.hits.Add(2) }

// publish mirrors the single-writer field: Store is the publish, not a bump.
func (c *cache) publish() {
	c.hits.Store(c.misses)
	c.pub.Publish()
}

// access is the per-access path.
//
//tcp:hotpath
func (c *cache) access() {
	c.hits.Inc() // want `reaches an atomic telemetry counter bump \(telemetry\.Counter\.Inc at bump\.go:\d+\)`
	c.count()    // want `bump \(calls bump\.cache\.count: telemetry\.Counter\.Inc at bump\.go`
	c.chain()    // want `bump \(calls bump\.cache\.chain: calls bump\.cache\.count: telemetry\.Counter\.Inc`
	c.slow()     // want `bump \(calls bump\.cache\.slow: telemetry\.Counter\.Add`
	c.misses++   // single-writer field: allowed
	c.publish()  // Store: allowed
	c.fill()     // hot callee: its own body is checked
}

// fill is hot too, so its bump is reported here, once.
//
//tcp:hotpath
func (c *cache) fill() {
	c.hits.Add(1) // want `bump \(telemetry\.Counter\.Add at bump\.go`
}
