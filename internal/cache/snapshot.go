package cache

import (
	"fmt"
	"sort"

	"tagprefetch/internal/checkpoint"
)

// Save implements checkpoint.Snapshotter, writing every line frame (tags,
// flags, timing metadata, and the unexported LRU stamp), the recency clock,
// and the activity counters into a section named after the cache.
func (c *Cache) Save(w *checkpoint.Writer) {
	w.Section("cache." + c.name)
	w.I64(c.tick)
	w.U32(uint32(c.geom.Sets()))
	w.U32(uint32(c.geom.Ways()))
	for i := range c.lines {
		ln := &c.lines[i]
		w.U64(ln.Tag)
		w.Bool(ln.Valid)
		w.Bool(ln.Dirty)
		w.Bool(ln.Prefetched)
		w.I64(ln.ReadyAt)
		w.I64(ln.FilledAt)
		w.I64(ln.LastTouch)
		w.I64(ln.lru)
	}
	for _, f := range c.st.Fields() {
		w.U64(*f)
	}
}

// Restore implements checkpoint.Snapshotter. The cache must have the same
// geometry as the one that was saved.
func (c *Cache) Restore(r *checkpoint.Reader) error {
	if err := r.Section("cache." + c.name); err != nil {
		return err
	}
	c.tick = r.I64()
	sets, ways := int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if sets != c.geom.Sets() || ways != c.geom.Ways() {
		return fmt.Errorf("cache %s: checkpoint geometry %dx%d, want %dx%d",
			c.name, sets, ways, c.geom.Sets(), c.geom.Ways())
	}
	for i := range c.lines {
		ln := &c.lines[i]
		ln.Tag = r.U64()
		ln.Valid = r.Bool()
		ln.Dirty = r.Bool()
		ln.Prefetched = r.Bool()
		ln.ReadyAt = r.I64()
		ln.FilledAt = r.I64()
		ln.LastTouch = r.I64()
		ln.lru = r.I64()
	}
	for _, f := range c.st.Fields() {
		*f = r.U64()
	}
	return r.Err()
}

// Save implements checkpoint.Snapshotter. In-flight entries are gathered
// from the fixed pool and written in ascending block-ID order, so the image
// is deterministic and independent of pool-frame assignment.
func (f *MSHRFile) Save(w *checkpoint.Writer) {
	w.Section("mshr")
	w.U64(f.merges)
	w.U64(f.allocs)
	w.U64(f.fullStall)
	live := make([]*MSHR, 0, f.count)
	for i := range f.pool {
		if m := &f.pool[i]; f.isLive(m) {
			live = append(live, m)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Block < live[j].Block })
	w.U32(uint32(len(live)))
	for _, m := range live {
		w.U64(m.Block)
		w.I64(m.ReadyAt)
		w.Int(m.Demands)
		w.Bool(m.Prefetch)
	}
}

// Restore implements checkpoint.Snapshotter.
func (f *MSHRFile) Restore(r *checkpoint.Reader) error {
	if err := r.Section("mshr"); err != nil {
		return err
	}
	f.merges = r.U64()
	f.allocs = r.U64()
	f.fullStall = r.U64()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n > f.capacity {
		return fmt.Errorf("mshr: checkpoint holds %d entries, capacity %d", n, f.capacity)
	}
	f.clear()
	for i := 0; i < n; i++ {
		e := MSHR{
			Block:    r.U64(),
			ReadyAt:  r.I64(),
			Demands:  r.Int(),
			Prefetch: r.Bool(),
		}
		if r.Err() != nil {
			break
		}
		if f.get(e.Block) != nil {
			return fmt.Errorf("mshr: checkpoint holds block %#x twice", e.Block)
		}
		slot := f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		e.slot = slot
		f.pool[slot] = e
		f.insert(&f.pool[slot])
		f.pushReady(mshrReady{block: e.Block, readyAt: e.ReadyAt})
	}
	return r.Err()
}
