package prefetch

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

// Markov implements Joseph and Grunwald's Markov prefetcher [9]: a
// set-associative correlation table keyed by miss block address whose entry
// stores up to `targets` most-recent successor addresses. On a miss the
// predecessor's entry learns the current address, and the current address's
// entry supplies the prefetch candidates. The paper cites its 1-2 MB table
// appetite as the motivating cost problem for TCP (Section 1).
type Markov struct {
	// table holds the sets' entries set-major, ways per set; entry i's
	// successors are succ[i*targets:][:table[i].n], MRU first.
	table   []markovEntry
	succ    []addr.Addr
	ways    int
	setMask uint64
	targets int // per-entry capacity fixed at construction; bounds a decoded row
	last    addr.Addr
	hasLast bool
	clock   int64
	reqs    []Request // scratch batch OnMiss returns
}

type markovEntry struct {
	block addr.Addr
	used  int64
	n     int32 // live successors
	valid bool
}

// NewMarkov creates a Markov prefetcher with 2^setBits sets of `ways`
// entries, each storing up to `targets` successors.
func NewMarkov(setBits uint, ways, targets int) *Markov {
	if ways < 1 {
		ways = 1
	}
	if targets < 1 {
		targets = 1
	}
	n := 1 << setBits
	return &Markov{
		table:   make([]markovEntry, n*ways),
		succ:    make([]addr.Addr, n*ways*targets),
		ways:    ways,
		setMask: uint64(n - 1),
		targets: targets,
		reqs:    make([]Request, 0, targets),
	}
}

// Name implements Prefetcher.
func (p *Markov) Name() string { return "markov" }

// successors returns entry i's live successor list.
func (p *Markov) successors(i int) []addr.Addr {
	return p.succ[i*p.targets:][:p.table[i].n]
}

// find returns the table index of block's entry, allocating the set's LRU
// way for it when allocate is set, or -1.
func (p *Markov) find(block addr.Addr, allocate bool) int {
	base := int((uint64(block)>>6)&p.setMask) * p.ways
	set := p.table[base : base+p.ways]
	for i := range set {
		if set[i].valid && set[i].block == block {
			return base + i
		}
	}
	if !allocate {
		return -1
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = markovEntry{block: block, valid: true}
	return base + victim
}

// OnMiss implements Prefetcher.
func (p *Markov) OnMiss(m trace.Miss) []Request {
	p.clock++
	if p.hasLast && p.last != m.Addr {
		i := p.find(p.last, true)
		e := &p.table[i]
		e.used = p.clock
		// Move-to-front insert of the new successor: shift the entries
		// ahead of it (or all of them, dropping the LRU one when full).
		s := p.successors(i)
		j := 0
		for j < len(s) && s[j] != m.Addr {
			j++
		}
		if j == len(s) && len(s) < p.targets {
			e.n++
			s = s[:len(s)+1]
		}
		copy(s[1:min(j+1, len(s))], s[:j])
		s[0] = m.Addr
	}
	p.last = m.Addr
	p.hasLast = true

	i := p.find(m.Addr, false)
	if i < 0 {
		return nil
	}
	p.table[i].used = p.clock
	reqs := p.reqs[:0]
	for _, s := range p.successors(i) {
		reqs = append(reqs, Request{Addr: s})
	}
	return reqs
}

// OnAccess implements Prefetcher.
func (p *Markov) OnAccess(addr.Addr, addr.Addr, int64, bool) []Request { return nil }

// OnEvict implements Prefetcher.
func (p *Markov) OnEvict(addr.Addr, int64, int64, int64) {}

// StorageBits implements Prefetcher: per entry one block address tag plus
// `targets` successor addresses, ~40 bits each.
func (p *Markov) StorageBits() uint64 {
	return uint64(len(p.table)) * uint64(1+p.targets) * 40
}
