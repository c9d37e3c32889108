package cache

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"tagprefetch/internal/checkpoint"
)

// lineBytes is one line frame's size in the image: Tag, the three flags
// as one byte each, then ReadyAt, FilledAt, LastTouch and the LRU stamp.
const lineBytes = 8 + 3 + 4*8

// Snapshot implements checkpoint.Snapshotter: every line frame (tags,
// flags, timing metadata, and the unexported LRU stamp), the recency
// clock, and the activity counters, in a section named after the cache.
// Decoding requires the geometry the image was encoded with.
func (c *Cache) Snapshot(cd *checkpoint.Codec) {
	cd.Section(c.section)
	cd.I64(&c.tick)
	sets, ways := uint32(c.geom.Sets()), uint32(c.geom.Ways())
	cd.U32(&sets)
	cd.U32(&ways)
	if int(sets) != c.geom.Sets() || int(ways) != c.geom.Ways() {
		cd.Fail(fmt.Errorf("cache %s: checkpoint geometry %dx%d, want %dx%d", c.name, sets, ways, c.geom.Sets(), c.geom.Ways()))
	}
	b := cd.Span(lineBytes * len(c.lines))
	switch {
	case !cd.Decoding():
		for i := range c.lines {
			putLine(b[lineBytes*i:], &c.lines[i])
		}
	case b != nil:
		for i := range c.lines {
			if !getLine(b[lineBytes*i:], &c.lines[i]) {
				cd.Fail(fmt.Errorf("%w: section %q: invalid bool encoding in line %d", checkpoint.ErrCorrupt, c.section, i))
				break
			}
		}
	}
	for _, f := range c.st.Fields() {
		cd.U64(f)
	}
}

// putLine writes ln's frame into b, in the order getLine reads it.
func putLine(b []byte, ln *Line) {
	le := binary.LittleEndian
	le.PutUint64(b, ln.Tag)
	b[8], b[9], b[10] = flag(ln.Valid), flag(ln.Dirty), flag(ln.Prefetched)
	le.PutUint64(b[11:], uint64(ln.ReadyAt))
	le.PutUint64(b[19:], uint64(ln.FilledAt))
	le.PutUint64(b[27:], uint64(ln.LastTouch))
	le.PutUint64(b[35:], uint64(ln.lru))
}

// getLine reads a frame putLine wrote into ln, and reports false if a flag
// byte is neither 0 nor 1.
func getLine(b []byte, ln *Line) bool {
	le := binary.LittleEndian
	if b[8] > 1 || b[9] > 1 || b[10] > 1 {
		return false
	}
	ln.Tag = le.Uint64(b)
	ln.Valid, ln.Dirty, ln.Prefetched = b[8] == 1, b[9] == 1, b[10] == 1
	ln.ReadyAt = int64(le.Uint64(b[11:]))
	ln.FilledAt = int64(le.Uint64(b[19:]))
	ln.LastTouch = int64(le.Uint64(b[27:]))
	ln.lru = int64(le.Uint64(b[35:]))
	return true
}

// flag is a bool's image byte.
func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// Snapshot implements checkpoint.Snapshotter. In-flight entries are coded
// in ascending block-ID order, so the image is deterministic and
// independent of pool-frame assignment; decoding re-inserts them into the
// cleared file.
func (f *MSHRFile) Snapshot(c *checkpoint.Codec) {
	c.Section("mshr")
	live := f.sorted[:0]
	for i := range f.pool {
		if m := &f.pool[i]; f.isLive(m) {
			live = append(live, *m)
		}
	}
	slices.SortFunc(live, func(a, b MSHR) int { return cmp.Compare(a.Block, b.Block) })
	n := c.Count(len(live), f.capacity)
	live = live[:n]
	for i := range live {
		e := &live[i]
		c.U64(&e.Block)
		c.I64(&e.ReadyAt)
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
		f.add(e)
	}
}
