// Package cache implements the set-associative, write-back, LRU caches used
// for the L1 data and L2 caches of the simulated machine (Table 1 of the
// paper), including the per-line metadata the prefetching
// experiments need: whether a line was brought in by a prefetch, and the
// cycle at which its data actually arrives (so a demand access that catches
// an in-flight prefetch pays only the remaining latency).
package cache

import (
	"fmt"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/telemetry"
)

// Line is one cache block frame.
type Line struct {
	Tag        uint64
	Valid      bool
	Dirty      bool
	Prefetched bool  // filled by a prefetch and not yet referenced by demand
	ReadyAt    int64 // cycle at which the block's data is available
	FilledAt   int64 // cycle at which the fill was initiated
	LastTouch  int64 // cycle of the most recent demand access (for dead-block timekeeping)
	lru        int64 // recency stamp; larger = more recent
}

// Cache is a set-associative write-back cache. Construct with New.
// Line frames live in one flat set-major array (c.set slices into it), so
// an access touches a single contiguous region instead of hopping through
// a slice-of-slices header table.
type Cache struct {
	name  string
	geom  addr.Geometry
	lines []Line
	ways  int   // derived from geom at construction; Snapshot validates geometry instead
	tick  int64 // recency clock

	st  Stats            // activity counters, single-writer
	pub telemetry.Mirror // host-side registry mirror of st, republished after a decode

	section string // checkpoint section name, "cache." + name; last, clear of the access path's fields
}

// set returns the line frames of set idx.
//
// Every probe, access and fill resolves its set through here.
func (c *Cache) set(idx uint32) []Line {
	base := int(idx) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// Stats holds the cache's activity counters. "Demand" excludes prefetch
// fills.
type Stats struct {
	Accesses              uint64 // demand accesses
	Hits                  uint64
	Misses                uint64
	HitsOnPrefetch        uint64 // demand hits whose line was brought in by a prefetch
	LateHits              uint64 // demand hits on lines whose data was still in flight
	Fills                 uint64 // demand fills
	PrefetchFills         uint64
	Evictions             uint64
	Writebacks            uint64
	UnusedPrefetchEvicted uint64 // prefetched lines evicted without a demand touch
}

// Sub returns the per-counter difference s - w, used to report
// measured-window statistics after a warmup-boundary snapshot.
func (s Stats) Sub(w Stats) Stats {
	sf, wf := s.Fields(), w.Fields()
	for i, f := range sf {
		*f -= *wf[i]
	}
	return s
}

// Fields lists every counter, in checkpoint order.
func (s *Stats) Fields() [10]*uint64 {
	return [...]*uint64{&s.Accesses, &s.Hits, &s.Misses, &s.HitsOnPrefetch,
		&s.LateHits, &s.Fills, &s.PrefetchFills, &s.Evictions, &s.Writebacks,
		&s.UnusedPrefetchEvicted}
}

// New creates a cache with the given geometry.
func New(name string, g addr.Geometry) *Cache {
	return &Cache{name: name, section: "cache." + name, geom: g,
		lines: make([]Line, g.Sets()*g.Ways()), ways: g.Ways()}
}

// Name returns the cache name.
func (c *Cache) Name() string { return c.name }

// AttachTelemetry registers the cache's counters into reg (e.g. a view
// scoped to "memsys.l1") as mirrors refreshed by PublishCounters. The
// tracer is unused: cache-level events are emitted by the memory system,
// which knows the hierarchy context.
func (c *Cache) AttachTelemetry(reg *telemetry.Registry, _ *telemetry.Tracer) {
	s, p := &c.st, &c.pub
	p.Bind(reg, &s.Accesses, telemetry.NewCounter("accesses", "demand accesses (excludes prefetch fills)"))
	p.Bind(reg, &s.Hits, telemetry.NewCounter("hits", "demand hits"))
	p.Bind(reg, &s.Misses, telemetry.NewCounter("misses", "demand misses"))
	p.Bind(reg, &s.HitsOnPrefetch, telemetry.NewCounter("hits_on_prefetch", "demand hits on lines brought in by a prefetch"))
	p.Bind(reg, &s.LateHits, telemetry.NewCounter("late_hits", "demand hits on lines whose data was still in flight"))
	p.Bind(reg, &s.Fills, telemetry.NewCounter("fills", "demand fills"))
	p.Bind(reg, &s.PrefetchFills, telemetry.NewCounter("prefetch_fills", "prefetch-initiated fills"))
	p.Bind(reg, &s.Evictions, telemetry.NewCounter("evictions", "valid lines displaced"))
	p.Bind(reg, &s.Writebacks, telemetry.NewCounter("writebacks", "dirty victims written back"))
	p.Bind(reg, &s.UnusedPrefetchEvicted, telemetry.NewCounter("unused_prefetch_evicted", "prefetched lines evicted without a demand touch"))
}

// PublishCounters stores the counters into the registry mirrors bound by
// AttachTelemetry.
func (c *Cache) PublishCounters() { c.pub.Publish() }

// Stats returns the activity counters.
func (c *Cache) Stats() Stats { return c.st }

// AccessResult describes the outcome of a demand access.
type AccessResult struct {
	Hit        bool
	ReadyAt    int64 // when the data is available (== access cycle for settled hits)
	Prefetched bool  // the hit line was originally filled by a prefetch
}

// Probe reports whether block a is present, without changing any state.
//
// The prefetch filter probes on every candidate prediction.
func (c *Cache) Probe(a addr.Addr) bool {
	set := c.set(c.geom.Index(a))
	tag := c.geom.Tag(a)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return true
		}
	}
	return false
}

// Access performs a demand read or write at cycle now.
// On a hit the line's recency and touch metadata are updated; on a miss the
// caller is responsible for performing the Fill after the lower levels
// return the block.
//
// Runs once per demand access at every cache level.
func (c *Cache) Access(a addr.Addr, write bool, now int64) AccessResult {
	tag := c.geom.Tag(a)
	var res AccessResult
	c.st.Accesses++
	set := c.set(c.geom.Index(a))
	for i := range set {
		ln := &set[i]
		if !ln.Valid || ln.Tag != tag {
			continue
		}
		c.st.Hits++
		res.Hit = true
		res.ReadyAt = now
		if ln.ReadyAt > now { // in-flight fill: pay remaining latency
			res.ReadyAt = ln.ReadyAt
			c.st.LateHits++
		}
		if ln.Prefetched {
			c.st.HitsOnPrefetch++
			res.Prefetched = true
			ln.Prefetched = false
		}
		if write {
			ln.Dirty = true
		}
		ln.LastTouch = now
		c.tick++
		ln.lru = c.tick
		return res
	}
	c.st.Misses++
	return res
}

// Eviction describes the line displaced by a fill.
type Eviction struct {
	Valid         bool // a valid line was displaced
	Addr          addr.Addr
	Dirty         bool
	WasPrefetched bool // displaced line was an unused prefetch
	LastTouch     int64
	FilledAt      int64
}

// Fill inserts block a at cycle now with data arriving at readyAt.
// prefetch marks the line as prefetched (not yet demanded). If the block is
// already present the existing line's readiness is refreshed instead (an
// in-flight demand fill and a prefetch to the same block merge).
// Returns the eviction, if any.
//
// Runs on every fill (demand and prefetch).
func (c *Cache) Fill(a addr.Addr, now, readyAt int64, prefetch bool) Eviction {
	idx := c.geom.Index(a)
	tag := c.geom.Tag(a)
	set := c.set(idx)
	if prefetch {
		c.st.PrefetchFills++
	} else {
		c.st.Fills++
	}
	// Merge with an existing copy.
	for i := range set {
		ln := &set[i]
		if ln.Valid && ln.Tag == tag {
			if readyAt < ln.ReadyAt {
				ln.ReadyAt = readyAt
			}
			if !prefetch {
				ln.Prefetched = false
			}
			return Eviction{}
		}
	}
	return c.place(set, idx, tag, now, readyAt, prefetch)
}

// FillFresh is Fill for a block the caller has just proven absent: an
// Access (or Fill-side probe) of the same set missed at this cycle and
// nothing has filled the set since. The merge scan is dropped on that
// precondition, and the direct-mapped case resolves its victim without a
// scan; every state change is exactly Fill's.
//
// The demand-miss fill path.
func (c *Cache) FillFresh(a addr.Addr, now, readyAt int64, prefetch bool) Eviction {
	idx := c.geom.Index(a)
	tag := c.geom.Tag(a)
	set := c.set(idx)
	if prefetch {
		c.st.PrefetchFills++
	} else {
		c.st.Fills++
	}
	return c.place(set, idx, tag, now, readyAt, prefetch)
}

// place installs tag over the set's victim — the first invalid way, else
// LRU — and reports the eviction. Shared tail of Fill and FillFresh.
func (c *Cache) place(set []Line, idx uint32, tag uint64, now, readyAt int64, prefetch bool) Eviction {
	victim := 0
	if c.ways > 1 {
		for i := range set {
			if !set[i].Valid {
				victim = i
				goto place
			}
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	place:
	}
	ev := Eviction{}
	v := &set[victim]
	if v.Valid {
		c.st.Evictions++
		ev.Valid = true
		ev.Addr = c.geom.Compose(v.Tag, idx)
		ev.Dirty = v.Dirty
		ev.WasPrefetched = v.Prefetched
		ev.LastTouch = v.LastTouch
		ev.FilledAt = v.FilledAt
		if v.Dirty {
			c.st.Writebacks++
		}
		if v.Prefetched {
			c.st.UnusedPrefetchEvicted++
		}
	}
	c.tick++
	*v = Line{
		Tag:        tag,
		Valid:      true,
		Prefetched: prefetch,
		ReadyAt:    readyAt,
		FilledAt:   now,
		LastTouch:  now,
		lru:        c.tick,
	}
	return ev
}

// SetDirty marks block a dirty if present (write-allocate stores dirty the
// line they just filled without a second demand access).
func (c *Cache) SetDirty(a addr.Addr) {
	set := c.set(c.geom.Index(a))
	tag := c.geom.Tag(a)
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			set[i].Dirty = true
			return
		}
	}
}

// VictimFor returns the line that a fill of block a would displace right
// now, without displacing it. ok is false when the fill would use an
// invalid (empty) way or merge with an existing copy of the block.
func (c *Cache) VictimFor(a addr.Addr) (Line, bool) {
	idx := c.geom.Index(a)
	tag := c.geom.Tag(a)
	set := c.set(idx)
	victim := -1
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			return Line{}, false
		}
		if !set[i].Valid {
			return Line{}, false
		}
		if victim < 0 || set[i].lru < set[victim].lru {
			victim = i
		}
	}
	return set[victim], true
}

// UnusedPrefetched returns the number of resident lines that were filled by
// a prefetch and never touched by demand (used at end of simulation to
// close the "prefetched extra" accounting of Figure 12).
func (c *Cache) UnusedPrefetched() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Valid && c.lines[i].Prefetched {
			n++
		}
	}
	return n
}

// Quiesce settles in-flight fill timing: every valid line's ReadyAt and
// FilledAt are clamped to at most now. Contents, recency order, and
// statistics are untouched — only future timestamps move, so hits after
// now no longer stall on fills scheduled under a different clock. The
// fast-forward warmup boundary uses this to keep functional-clock fill
// times from leaking stalls into the cycle-accurate measured window
// (docs/FASTFORWARD.md).
func (c *Cache) Quiesce(now int64) {
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.Valid {
			continue
		}
		if ln.ReadyAt > now {
			ln.ReadyAt = now
		}
		if ln.FilledAt > now {
			ln.FilledAt = now
		}
	}
}

// String describes the cache configuration.
func (c *Cache) String() string {
	g := c.geom
	return fmt.Sprintf("%s: %dKB %d-way %dB blocks (%d sets)",
		c.name, g.SizeBytes()/1024, g.Ways(), g.BlockBytes(), g.Sets())
}
