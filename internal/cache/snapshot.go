package cache

import (
	"fmt"
	"slices"
	"sort"

	"tagprefetch/internal/checkpoint"
)

// Snapshot implements checkpoint.Snapshotter: every line frame (tags,
// flags, timing metadata, and the unexported LRU stamp), the recency
// clock, and the activity counters, in a section named after the cache.
// Decoding requires the geometry the image was encoded with.
func (c *Cache) Snapshot(cd *checkpoint.Codec) {
	cd.Section("cache." + c.name)
	cd.I64(&c.tick)
	sets, ways := uint32(c.geom.Sets()), uint32(c.geom.Ways())
	cd.U32(&sets)
	cd.U32(&ways)
	if int(sets) != c.geom.Sets() || int(ways) != c.geom.Ways() {
		cd.Fail(fmt.Errorf("cache %s: checkpoint geometry %dx%d, want %dx%d", c.name, sets, ways, c.geom.Sets(), c.geom.Ways()))
	}
	for i := range c.lines {
		ln := &c.lines[i]
		cd.U64(&ln.Tag)
		cd.Bool(&ln.Valid)
		cd.Bool(&ln.Dirty)
		cd.Bool(&ln.Prefetched)
		cd.I64(&ln.ReadyAt)
		cd.I64(&ln.FilledAt)
		cd.I64(&ln.LastTouch)
		cd.I64(&ln.lru)
	}
	for _, f := range c.st.Fields() {
		cd.U64(f)
	}
}

// Snapshot implements checkpoint.Snapshotter. In-flight entries are coded
// in ascending block-ID order, so the image is deterministic and
// independent of pool-frame assignment; decoding re-inserts them into the
// cleared file.
func (f *MSHRFile) Snapshot(c *checkpoint.Codec) {
	c.Section("mshr")
	c.U64(&f.merges)
	c.U64(&f.allocs)
	c.U64(&f.fullStall)
	live := make([]MSHR, 0, f.count)
	for i := range f.pool {
		if m := &f.pool[i]; f.isLive(m) {
			live = append(live, *m)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Block < live[j].Block })
	n := c.Count(len(live), f.capacity)
	live = slices.Grow(live[:0], n)[:n]
	for i := range live {
		e := &live[i]
		c.U64(&e.Block)
		c.I64(&e.ReadyAt)
		c.Int(&e.Demands)
		c.Bool(&e.Prefetch)
	}
	if c.Decoding() {
		f.rebuild(c, live)
	}
}

// rebuild replaces the file's entries with the decoded live list.
func (f *MSHRFile) rebuild(c *checkpoint.Codec, live []MSHR) {
	f.clear()
	for _, e := range live {
		if f.get(e.Block) != nil {
			c.Fail(fmt.Errorf("mshr: checkpoint holds block %#x twice", e.Block))
			return
		}
		slot := f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		e.slot = slot
		f.pool[slot] = e
		f.insert(&f.pool[slot])
		f.pushReady(mshrReady{block: e.Block, readyAt: e.ReadyAt})
	}
}
