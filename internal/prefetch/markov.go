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
	table   Table[uint64] // keyed by block address; targets are successor addresses
	last    addr.Addr
	hasLast bool
	clock   int64
	reqs    []Request // scratch batch OnMiss returns
}

// NewMarkov creates a Markov prefetcher with 2^setBits sets of `ways`
// entries, each storing up to `targets` successors.
func NewMarkov(setBits uint, ways, targets int) *Markov {
	p := &Markov{table: NewTable(1<<setBits, ways, targets, ^uint64(0))}
	p.reqs = make([]Request, 0, p.table.ntargets)
	return p
}

// Name implements Prefetcher.
func (p *Markov) Name() string { return "markov" }

func (p *Markov) set(block addr.Addr) uint64 {
	return (uint64(block) >> 6) & uint64(p.table.sets-1)
}

// OnMiss implements Prefetcher.
func (p *Markov) OnMiss(m trace.Miss) []Request {
	p.clock++
	if p.hasLast && p.last != m.Addr {
		set, key := p.set(p.last), uint64(p.last)
		i := p.table.Find(set, key)
		if i < 0 {
			i, _, _ = p.table.Allocate(set, key)
		}
		p.table.Touch(i, p.clock)
		p.table.Train(i, uint64(m.Addr))
	}
	p.last = m.Addr
	p.hasLast = true

	i := p.table.Find(p.set(m.Addr), uint64(m.Addr))
	if i < 0 {
		return nil
	}
	p.table.Touch(i, p.clock)
	reqs := p.reqs[:0]
	for _, s := range p.table.Targets(i) {
		reqs = append(reqs, Request{Addr: addr.Addr(s)})
	}
	return reqs
}

// OnAccess implements Prefetcher.
func (p *Markov) OnAccess(addr.Addr, addr.Addr, int64, bool) []Request { return nil }

// StorageBits implements Prefetcher: per entry one block address tag plus
// `targets` successor addresses, ~40 bits each.
func (p *Markov) StorageBits() uint64 {
	t := &p.table
	return uint64(t.sets) * uint64(t.nways) * uint64(1+t.ntargets) * 40
}
