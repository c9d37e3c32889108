// Package a exercises the statreg analyzer: metric naming, duplicate and
// conflicting registration, mutation through Lookup handles, unregistered
// metric fields, and suppression handling.
package a

import "tagprefetch/internal/telemetry"

// stats holds one registered field per registration route and one field
// that is never registered anywhere.
type stats struct {
	attached  *telemetry.Counter
	listed    *telemetry.Gauge
	fromReg   *telemetry.Counter
	forgotten *telemetry.Counter // want `metric field forgotten \(\*telemetry\.Counter\) is never registered`
}

func wire(reg *telemetry.Registry) *stats {
	s := &stats{
		attached: telemetry.NewCounter("cache.hits", "demand hits"),
		listed:   telemetry.NewGauge("cache.occupancy", "live lines"),
	}
	reg.Attach(s.attached)
	s.fromReg = reg.Counter("cache.misses", "demand misses")
	_ = []telemetry.Metric{s.listed}
	s.forgotten = telemetry.NewCounter("cache.fills", "demand fills")
	return s
}

// badNames violates the dot-separated lower_snake_case convention.
func badNames(reg *telemetry.Registry) {
	reg.Counter("CacheHits", "camel case") // want `metric name "CacheHits" violates the registry convention`
	reg.Gauge("cache-hit-rate", "kebab case") // want `metric name "cache-hit-rate" violates the registry convention`
	_ = telemetry.NewCounter("cache..hits", "empty segment") // want `metric name "cache\.\.hits" violates the registry convention`
	_ = reg.Sub("L1") // want `metric name "L1" violates the registry convention`
}

// namespaces: three-or-more-segment names are fully qualified, so their
// first segment must be a known namespace root. Shorter names are usually
// relative to a sub-registry and are never root-checked.
func namespaces(reg *telemetry.Registry) {
	reg.Counter("fleet.jobs.total", "known root, fully qualified")
	reg.Gauge("memsys.l1.occupancy", "known root, fully qualified")
	reg.Counter("sweepd.jobs.executed", "known root, fully qualified")
	reg.Counter("flete.jobs.total", "typo'd root") // want `metric name "flete\.jobs\.total" is rooted in unknown namespace "flete"`
	reg.Counter("cache.hits.total", "unknown root") // want `metric name "cache\.hits\.total" is rooted in unknown namespace "cache"`
	reg.Counter("cache.hits2", "two segments: relative, not root-checked")
	reg.Counter("hits2", "one segment: relative, not root-checked")
}

// duplicates registers one name twice with the same kind and another with
// conflicting kinds.
func duplicates(reg *telemetry.Registry) {
	a := reg.Counter("dup.same", "first")
	b := reg.Counter("dup.same", "second") // want `metric "dup\.same" is registered twice in this function`
	_, _ = a, b
	reg.Gauge("dup.kind", "as gauge")
	reg.Counter("dup.kind", "as counter") // want `metric "dup\.kind" already registered as gauge in this function; registering it as counter panics at runtime`
}

// lookupMutation writes through a read-side handle, directly and through a
// type assertion bound with the comma-ok form.
func lookupMutation(reg *telemetry.Registry) {
	m, ok := reg.Lookup("cache.hits")
	if !ok {
		return
	}
	m.(*telemetry.Counter).Inc() // want `counter\.Inc mutates a metric obtained from Registry\.Lookup`
	c, ok := m.(*telemetry.Counter)
	if ok {
		c.Add(2) // want `counter\.Add mutates a metric obtained from Registry\.Lookup`
	}
}

// lookupReadsOK: reading through a Lookup handle is the intended use.
func lookupReadsOK(reg *telemetry.Registry) uint64 {
	m, ok := reg.Lookup("cache.hits")
	if !ok {
		return 0
	}
	if c, ok := m.(*telemetry.Counter); ok {
		return c.Value()
	}
	return 0
}

// ownedMutationOK: mutating a component-owned handle is the normal path.
func ownedMutationOK(s *stats) {
	s.attached.Inc()
	s.listed.Set(0.5)
}

// suppressed justifies a test-only backdoor write through a Lookup handle.
func suppressed(reg *telemetry.Registry) {
	m, ok := reg.Lookup("cache.hits")
	if !ok {
		return
	}
	//lint:ignore tcplint/statreg test fixture seeds the counter before snapshotting
	m.(*telemetry.Counter).Store(7)
}

// unjustified keeps the finding and flags the bare ignore comment.
func unjustified(reg *telemetry.Registry) {
	m, ok := reg.Lookup("cache.hits")
	if !ok {
		return
	}
	//lint:ignore tcplint/statreg
	m.(*telemetry.Counter).Inc() // want `lint:ignore comment needs a justification` `counter\.Inc mutates a metric obtained from Registry\.Lookup`
}
