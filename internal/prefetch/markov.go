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
	sets    [][]markovEntry
	setMask uint64 //tcp:nosnap geometry derived from the set count at construction
	targets int    // per-entry capacity fixed at construction; bounds a decoded row
	last    addr.Addr
	hasLast bool
	clock   int64
}

type markovEntry struct {
	block addr.Addr
	succ  []addr.Addr // MRU-first successor list
	used  int64
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
	sets := make([][]markovEntry, n)
	for i := range sets {
		sets[i] = make([]markovEntry, ways)
	}
	return &Markov{sets: sets, setMask: uint64(n - 1), targets: targets}
}

// Name implements Prefetcher.
func (p *Markov) Name() string { return "markov" }

func (p *Markov) find(block addr.Addr, allocate bool) *markovEntry {
	set := p.sets[(uint64(block)>>6)&p.setMask]
	for i := range set {
		if set[i].valid && set[i].block == block {
			return &set[i]
		}
	}
	if !allocate {
		return nil
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
	return &set[victim]
}

// OnMiss implements Prefetcher.
func (p *Markov) OnMiss(m trace.Miss) []Request {
	p.clock++
	if p.hasLast && p.last != m.Addr {
		e := p.find(p.last, true)
		e.used = p.clock
		// Move-to-front insert of the new successor.
		out := make([]addr.Addr, 0, p.targets)
		out = append(out, m.Addr)
		for _, s := range e.succ {
			if s != m.Addr && len(out) < p.targets {
				out = append(out, s)
			}
		}
		e.succ = out
	}
	p.last = m.Addr
	p.hasLast = true

	e := p.find(m.Addr, false)
	if e == nil {
		return nil
	}
	e.used = p.clock
	reqs := make([]Request, 0, len(e.succ))
	for _, s := range e.succ {
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
	ways := 0
	if len(p.sets) > 0 {
		ways = len(p.sets[0])
	}
	return uint64(len(p.sets)) * uint64(ways) * uint64(1+p.targets) * 40
}
