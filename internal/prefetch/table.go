package prefetch

import (
	"math"
	"math/bits"
)

// Table is the set-associative correlation table that TCP's PHT, DBCP's
// correlation table and the Markov prefetcher share: each way holds a key,
// a recency stamp and an MRU list of up to Targets successors. The caller
// owns the set hash, the key, the clock that stamps recency (Touch) and
// every counter; the table owns storage, matching, the victim rule and the
// checkpoint records. K is the key's width: TCP's partial tags fit a
// uint32, which keeps a way at 16 bytes; DBCP's and Markov's keys are
// uint64.
//
// Storage is proportional to the sets a run trains: dir has one slot per
// set, 0 for a set never allocated (all ways invalid) and otherwise 1 + the
// set's frame. Frame f holds the set's ways at ways[f*nways:] and their
// targets at targets[f*nways*ntargets:], frames numbered in
// first-allocation order. A way index (Find, Allocate, Touch, Targets,
// Train) is an index into ways.
type Table[K uint32 | uint64] struct {
	sets, nways, ntargets int
	keyMask               K // keys are matched and stored under it; bounds a decoded key

	dir     []uint32
	ways    []way[K] // frames x nways
	targets []uint64 // frames x nways x ntargets; way i's MRU list is targets[i*ntargets:][:n]
}

// way is pointer-free: its targets live in Table.targets, so the table is
// neither scanned by the GC nor allocated per entry.
type way[K uint32 | uint64] struct {
	used  int64
	key   K
	n     uint8 // live targets
	valid bool
}

// initialFrames is the pool capacity NewTable reserves, in sets: every
// table up to 4096 sets (TCP's PHTs up to 128 KB) fits without ever
// growing, so its OnMiss never allocates.
const initialFrames = 4096

// NewTable returns an empty table of sets (at least 1) x ways ways, each
// keeping up to targets successors (clamped to [1, 255]). Keys are
// matched under keyMask; the caller's set hash picks a set below sets.
func NewTable[K uint32 | uint64](sets, ways, targets int, keyMask K) Table[K] {
	ways = max(ways, 1)
	targets = min(max(targets, 1), math.MaxUint8) // way.n is a uint8
	t := Table[K]{sets: sets, nways: ways, ntargets: targets, keyMask: keyMask,
		dir: make([]uint32, sets)}
	t.ways = make([]way[K], 0, min(sets, initialFrames)*ways)
	t.targets = make([]uint64, 0, cap(t.ways)*targets)
	return t
}

// GrowthAllowance is the number of heap allocations the table's pools may
// make over its lifetime: two (ways and targets) per doubling from
// NewTable's initialFrames up to the table's sets.
func (t *Table[K]) GrowthAllowance() uint64 {
	return 2 * uint64(bits.Len(uint((t.sets-1)/initialFrames)))
}

// Find returns the index of key's way in set, or -1. A set never
// allocated has no valid way.
func (t *Table[K]) Find(set uint64, key K) int {
	f := t.dir[set]
	if f == 0 {
		return -1
	}
	key &= t.keyMask
	base := int(f-1) * t.nways
	for i, w := range t.ways[base : base+t.nways] {
		if w.valid && w.key == key {
			return base + i
		}
	}
	return -1
}

// Allocate gives key a fresh way in set, with no targets and recency 0:
// the first invalid way, else the least recently used, the first such way
// winning. It reports the key of a valid way it displaced. The caller has
// checked that key is absent (Find).
func (t *Table[K]) Allocate(set uint64, key K) (i int, evicted K, ok bool) {
	base := t.frame(set) * t.nways
	s := t.ways[base : base+t.nways]
	victim := 0
	for j := range s {
		if !s[j].valid {
			victim = j
			break
		}
		if s[j].used < s[victim].used {
			victim = j
		}
	}
	evicted, ok = s[victim].key, s[victim].valid
	s[victim] = way[K]{key: key & t.keyMask, valid: true}
	return base + victim, evicted, ok
}

// Touch stamps way i's recency.
func (t *Table[K]) Touch(i int, used int64) { t.ways[i].used = used }

// Targets returns way i's MRU target list.
func (t *Table[K]) Targets(i int) []uint64 {
	return t.targets[i*t.ntargets:][:t.ways[i].n]
}

// Train records target as the MRU target of way i: target followed by the
// way's other targets in their previous order, the LRU one dropping off a
// full list.
func (t *Table[K]) Train(i int, target uint64) {
	list := t.targets[i*t.ntargets:][:t.ntargets]
	n := int(t.ways[i].n)
	j := 0
	for j < n && list[j] != target {
		j++
	}
	j = min(j, len(list)-1)
	copy(list[1:j+1], list[:j])
	list[0] = target
	t.ways[i].n = uint8(max(n, j+1))
}

// frame returns set's frame, materialising the set (all ways invalid, no
// targets) if it was never allocated.
func (t *Table[K]) frame(set uint64) int {
	if f := t.dir[set]; f != 0 {
		return int(f - 1)
	}
	w, nt := t.nways, t.nways*t.ntargets
	f := len(t.ways) / w
	if len(t.ways) == cap(t.ways) {
		t.grow(min(2*f, t.sets))
	}
	// A frame reused after clear holds stale ways. Its stale targets need
	// no clearing: only the first n of a way's slots are read.
	t.ways = t.ways[:len(t.ways)+w]
	clear(t.ways[f*w:])
	t.targets = t.targets[:len(t.targets)+nt]
	t.dir[set] = uint32(f + 1)
	return f
}

// grow reallocates the pools with room for frames sets. Doubling (capped
// at the table's sets) bounds a table to log2(sets/initialFrames) growths
// and its cumulative pool bytes to twice the final pools.
func (t *Table[K]) grow(frames int) {
	ways := make([]way[K], len(t.ways), frames*t.nways)
	copy(ways, t.ways)
	t.ways = ways
	targets := make([]uint64, len(t.targets), cap(ways)*t.ntargets)
	copy(targets, t.targets)
	t.targets = targets
}

// clear empties the table, keeping the pools' capacity for reuse.
func (t *Table[K]) clear() {
	clear(t.dir)
	t.ways = t.ways[:0]
	t.targets = t.targets[:0]
}
