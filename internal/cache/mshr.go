package cache

import "tagprefetch/internal/addr"

// MSHRFile models the miss status holding registers of the L1 data cache
// (Table 1: 64 MSHRs). Each entry tracks one in-flight block fill; misses to
// a block that is already in flight merge into the existing entry instead of
// issuing a second request. When the file is full, further misses must stall
// until an entry retires.
//
// Entries live in a fixed pool, found by a chained block→frame table: a
// lookup hashes the block ID and walks a (sub-1 average length) chain
// through the pool. Alongside it the file keeps a min-heap of (block,
// ReadyAt) pairs, so the full-file stall path (EarliestReady +
// ReleaseBefore) costs O(log n). The heap is lazily pruned: Remove leaves
// its pair behind as a tombstone, dropped when it surfaces at the top or
// during a periodic compaction. A pair is live iff the index still holds
// its block with the same ReadyAt — ReadyAt never changes between Allocate
// and retirement except under Quiesce, which rebuilds the heap, so the pair
// identifies one allocation generation.
type MSHRFile struct {
	capacity int         // geometry fixed at construction; bounds the decoded entry count
	pool     []MSHR      // backing store rebuilt on decode from the entry list
	free     []int32     // free-frame list rebuilt with pool
	ready    []mshrReady // ready heap rebuilt with pool
	count    int         // in-flight tally mirroring the entry set, rebuilt with it

	heads []int32 // chained lookup index rebuilt with pool
	next  []int32 // chain links indexed by pool frame, rebuilt with heads
	shift uint    // table geometry fixed at construction

	merges    uint64
	allocs    uint64
	fullStall uint64

	sorted []MSHR // Snapshot's scratch: the live entries in block order
}

// MSHR is one in-flight miss. Entries live in the file's fixed pool, so
// pointers returned by Lookup/Allocate are only valid while the entry is
// in flight.
type MSHR struct {
	Block    uint64 // block ID
	ReadyAt  int64  // cycle the fill completes
	Demands  int    // number of demand accesses merged into this miss
	Prefetch bool   // initiated by a prefetch (no demand yet)

	slot int32 // pool frame index
}

// mshrReady is one heap pair; see the MSHRFile doc for the staleness rule.
type mshrReady struct {
	block   uint64
	readyAt int64
}

// NewMSHRFile creates a file with the given capacity (must be positive).
func NewMSHRFile(capacity int) *MSHRFile {
	if capacity <= 0 {
		capacity = 1
	}
	buckets, shift := 8, uint(61)
	for buckets < 4*capacity {
		buckets *= 2
		shift--
	}
	f := &MSHRFile{
		capacity: capacity,
		pool:     make([]MSHR, capacity),
		free:     make([]int32, 0, capacity),
		ready:    make([]mshrReady, 0, 2*capacity),
		heads:    make([]int32, buckets),
		next:     make([]int32, capacity),
		shift:    shift,
		sorted:   make([]MSHR, 0, capacity),
	}
	f.clear()
	return f
}

// clear empties the file: every pool frame free, the index and the ready
// heap empty.
func (f *MSHRFile) clear() {
	f.free = f.free[:0]
	for i := f.capacity - 1; i >= 0; i-- {
		f.free = append(f.free, int32(i))
	}
	for i := range f.heads {
		f.heads[i] = -1
	}
	f.count = 0
	f.ready = f.ready[:0]
}

// Capacity returns the number of entries.
func (f *MSHRFile) Capacity() int { return f.capacity }

// InFlight returns the number of occupied entries.
func (f *MSHRFile) InFlight() int { return f.count }

// get returns the in-flight entry for block id, or nil.
func (f *MSHRFile) get(id uint64) *MSHR {
	for s := f.heads[f.bucket(id)]; s >= 0; s = f.next[s] {
		if f.pool[s].Block == id {
			return &f.pool[s]
		}
	}
	return nil
}

// insert records m (already written into its pool frame) in the index.
// The block must not be present.
func (f *MSHRFile) insert(m *MSHR) {
	b := f.bucket(m.Block)
	f.next[m.slot] = f.heads[b]
	f.heads[b] = m.slot
	f.count++
}

// unlink drops m from the index and recycles its pool frame. The entry
// must be present.
func (f *MSHRFile) unlink(m *MSHR) {
	b := f.bucket(m.Block)
	if f.heads[b] == m.slot {
		f.heads[b] = f.next[m.slot]
	} else {
		for s := f.heads[b]; ; s = f.next[s] {
			if f.next[s] == m.slot {
				f.next[s] = f.next[m.slot]
				break
			}
		}
	}
	f.free = append(f.free, m.slot)
	f.count--
}

// bucket hashes a block ID into the chain table (Fibonacci hashing on a
// power-of-two table).
func (f *MSHRFile) bucket(id uint64) uint64 {
	return (id * 0x9E3779B97F4A7C15) >> f.shift
}

// isLive reports whether pool entry m is currently in flight.
func (f *MSHRFile) isLive(m *MSHR) bool { return f.get(m.Block) == m }

// Lookup returns the entry for block a under geometry g, if in flight.
func (f *MSHRFile) Lookup(g addr.Geometry, a addr.Addr) (*MSHR, bool) {
	m := f.get(g.BlockID(a))
	return m, m != nil
}

// Remove retires the entry for block a, if any. Its heap pair stays behind
// as a tombstone.
func (f *MSHRFile) Remove(g addr.Geometry, a addr.Addr) {
	if m := f.get(g.BlockID(a)); m != nil {
		f.unlink(m)
	}
}

// live reports whether a heap pair still denotes an in-flight entry.
func (f *MSHRFile) live(e mshrReady) bool {
	m := f.get(e.block)
	return m != nil && m.ReadyAt == e.readyAt
}

// ReleaseBefore retires every entry whose fill completed at or before now,
// returning the number retired. The simulator calls this as time advances.
func (f *MSHRFile) ReleaseBefore(now int64) int {
	n := 0
	for len(f.ready) > 0 && f.ready[0].readyAt <= now {
		e := f.popReady()
		if m := f.get(e.block); m != nil && m.ReadyAt == e.readyAt {
			f.unlink(m)
			n++
		}
	}
	return n
}

// EarliestReady returns the soonest completion cycle among in-flight
// entries, or 0 when the file is empty.
func (f *MSHRFile) EarliestReady() int64 {
	for len(f.ready) > 0 {
		if f.live(f.ready[0]) {
			return f.ready[0].readyAt
		}
		f.popReady()
	}
	return 0
}

// Allocate records a new in-flight miss for block a completing at readyAt.
// It returns the entry and true on success, or nil and false when the file
// is full (the caller must stall until EarliestReady and retry). If the
// block is already in flight the existing entry is returned with merged
// demand accounting and ok = true.
func (f *MSHRFile) Allocate(g addr.Geometry, a addr.Addr, readyAt int64, prefetch bool) (*MSHR, bool) {
	id := g.BlockID(a)
	if m := f.get(id); m != nil {
		f.merges++
		if !prefetch {
			m.Demands++
			m.Prefetch = false
		}
		return m, true
	}
	if f.count >= f.capacity {
		f.fullStall++
		return nil, false
	}
	slot := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	m := &f.pool[slot]
	*m = MSHR{Block: id, ReadyAt: readyAt, Prefetch: prefetch, slot: slot}
	if !prefetch {
		m.Demands = 1
	}
	f.insert(m)
	f.allocs++
	f.pushReady(mshrReady{block: id, readyAt: readyAt})
	return m, true
}

// pushReady adds a ready pair, compacting tombstones first when they
// dominate the structure (lazy deletion would otherwise grow it without
// bound on workloads that retire entries via Remove and rarely stall).
func (f *MSHRFile) pushReady(e mshrReady) {
	if len(f.ready) >= 2*f.capacity && len(f.ready) >= 2*f.count {
		f.compactReady()
	}
	f.ready = append(f.ready, e)
	i := len(f.ready) - 1
	for i > 0 {
		p := (i - 1) / 2
		if f.ready[p].readyAt <= f.ready[i].readyAt {
			break
		}
		f.ready[p], f.ready[i] = f.ready[i], f.ready[p]
		i = p
	}
}

// popReady removes and returns the minimum pair; the heap must be
// non-empty.
func (f *MSHRFile) popReady() mshrReady {
	top := f.ready[0]
	last := len(f.ready) - 1
	f.ready[0] = f.ready[last]
	f.ready = f.ready[:last]
	f.siftDown(0)
	return top
}

// siftDown restores the heap property below index i.
func (f *MSHRFile) siftDown(i int) {
	n := len(f.ready)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && f.ready[l].readyAt < f.ready[min].readyAt {
			min = l
		}
		if r < n && f.ready[r].readyAt < f.ready[min].readyAt {
			min = r
		}
		if min == i {
			return
		}
		f.ready[i], f.ready[min] = f.ready[min], f.ready[i]
		i = min
	}
}

// compactReady drops every tombstone and re-heapifies the survivors.
func (f *MSHRFile) compactReady() {
	keep := f.ready[:0]
	for _, e := range f.ready {
		if f.live(e) {
			keep = append(keep, e)
		}
	}
	f.ready = keep
	for i := len(f.ready)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
}

// Quiesce clamps every in-flight entry's completion cycle to at most max
// and rebuilds the ready heap to match. Entries stay in flight — merges
// against them keep their semantics — but none completes later than max,
// bounding post-clamp stalls and merge windows. The fast-forward warmup
// boundary uses this with max = boundary + the worst-case fill latency:
// in-flight fills scheduled under the functional clock retire on the same
// horizon the cycle-accurate engine would give its own boundary
// stragglers, instead of at backlogged functional-clock times
// (docs/FASTFORWARD.md). The rebuild walks the fixed pool in frame order,
// so it is deterministic.
func (f *MSHRFile) Quiesce(max int64) {
	f.ready = f.ready[:0]
	for i := range f.pool {
		m := &f.pool[i]
		if !f.isLive(m) {
			continue // unoccupied frame
		}
		if m.ReadyAt > max {
			m.ReadyAt = max
		}
		f.ready = append(f.ready, mshrReady{block: m.Block, readyAt: m.ReadyAt})
	}
	for i := len(f.ready)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
}

// MSHRStats summarises MSHR activity.
type MSHRStats struct {
	Allocations uint64
	Merges      uint64
	FullStalls  uint64
}

// Stats returns activity counters.
func (f *MSHRFile) Stats() MSHRStats {
	return MSHRStats{Allocations: f.allocs, Merges: f.merges, FullStalls: f.fullStall}
}
