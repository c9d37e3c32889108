package prefetch

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

// GHB implements a Global History Buffer prefetcher in the PC/DC
// configuration of Nesbit and Smith (HPCA 2004): an index table keyed by
// load PC points at the most recent entry of a circular miss-history
// buffer whose entries are chained per key; on a miss, the chain's recent
// deltas are correlated against the latest delta pair and the following
// deltas are replayed as prefetch targets.
//
// The paper predates GHB by a year, but GHB became the canonical
// correlation-prefetcher organisation, so the ablation benches include it
// as a modern point of comparison against TCP's THT/PHT split (both decouple
// history storage from correlation state; GHB does it with one buffer and
// pointers, TCP with two tables).
type GHB struct {
	buffer []ghbEntry
	head   int

	index map[uint64]int // PC -> buffer position of most recent miss

	degree int           // prefetch-degree configuration fixed at construction
	geom   addr.Geometry // address geometry fixed at construction

	// Scratch for one OnMiss: the key's recent misses, their deltas and
	// the batch it returns, sized at construction.
	hist   []addr.Addr
	deltas []int64
	reqs   []Request
}

// ghbChain is how many of a key's most recent misses OnMiss correlates.
const ghbChain = 16

type ghbEntry struct {
	addr addr.Addr
	prev int    // buffer position of the previous miss with the same key (-1 none)
	key  uint64 // owning key, to validate stale prev pointers
}

// NewGHB creates a GHB of `size` entries issuing up to `degree` prefetches
// per correlation hit.
func NewGHB(g addr.Geometry, size, degree int) *GHB {
	if size < 8 {
		size = 8
	}
	if degree < 1 {
		degree = 1
	}
	return &GHB{
		buffer: make([]ghbEntry, size),
		index:  make(map[uint64]int),
		degree: degree,
		geom:   g,
		hist:   make([]addr.Addr, 0, ghbChain),
		deltas: make([]int64, 0, ghbChain-1),
		reqs:   make([]Request, 0, degree),
	}
}

// Name implements Prefetcher.
func (p *GHB) Name() string { return "ghb-pc/dc" }

// chain returns up to ghbChain most-recent miss addresses for key, newest
// first, in the hist scratch.
func (p *GHB) chain(key uint64) []addr.Addr {
	out := p.hist[:0]
	pos, ok := p.index[key]
	for ok && len(out) < ghbChain {
		e := p.buffer[pos]
		if e.key != key {
			break // entry overwritten by another chain
		}
		out = append(out, e.addr)
		if e.prev < 0 {
			break
		}
		// A prev pointer is valid only if the pointed entry still belongs
		// to this key (the circular buffer recycles entries).
		pos, ok = e.prev, true
	}
	return out
}

// OnMiss implements Prefetcher.
func (p *GHB) OnMiss(m trace.Miss) []Request {
	key := uint64(m.PC) >> 2

	// Append to the buffer, linking to the previous miss of this key.
	prev := -1
	if old, ok := p.index[key]; ok && p.buffer[old].key == key {
		prev = old
	}
	p.buffer[p.head] = ghbEntry{addr: m.Addr, prev: prev, key: key}
	p.index[key] = p.head
	p.head++
	if p.head == len(p.buffer) {
		p.head = 0
	}

	// Delta correlation over the chain (newest first -> reverse to oldest
	// first for natural delta order).
	hist := p.chain(key)
	if len(hist) < 4 {
		return nil
	}
	for i, j := 0, len(hist)-1; i < j; i, j = i+1, j-1 {
		hist[i], hist[j] = hist[j], hist[i]
	}
	deltas := p.deltas[:len(hist)-1]
	for i := 1; i < len(hist); i++ {
		deltas[i-1] = int64(hist[i]) - int64(hist[i-1])
	}
	d1, d2 := deltas[len(deltas)-2], deltas[len(deltas)-1]

	// Find the most recent earlier occurrence of the delta pair (d1, d2).
	match := -1
	for i := len(deltas) - 3; i >= 1; i-- {
		if deltas[i-1] == d1 && deltas[i] == d2 {
			match = i
			break
		}
	}
	if match < 0 {
		return nil
	}
	// Replay the deltas that followed the matched pair.
	reqs := p.reqs[:0]
	cur := int64(m.Addr)
	for i := match + 1; i < len(deltas) && len(reqs) < p.degree; i++ {
		cur += deltas[i]
		if cur <= 0 {
			break
		}
		a := p.geom.Block(addr.Addr(cur))
		if a != p.geom.Block(m.Addr) {
			reqs = append(reqs, Request{Addr: a})
		}
	}
	return reqs
}

// OnAccess implements Prefetcher.
func (p *GHB) OnAccess(addr.Addr, addr.Addr, int64, bool) []Request { return nil }

// StorageBits implements Prefetcher: each buffer entry holds an address
// (~40b) and a link (~log2(size)b); the index table holds one pointer per
// tracked PC (accounted as buffer-sized).
func (p *GHB) StorageBits() uint64 {
	link := uint64(16)
	return uint64(len(p.buffer))*(40+link) + uint64(len(p.buffer))*(32+link)
}
