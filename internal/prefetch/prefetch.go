// Package prefetch defines the prefetcher interface used by the memory
// system and implements the classic hardware prefetchers the paper situates
// TCP against: Baer-Chen stride prefetching [2], Jouppi stream buffers
// [10], Joseph-Grunwald Markov prefetching [9], and simple next-line
// prefetching. TCP itself lives in internal/core and DBCP in internal/dbcp;
// both satisfy the same interface.
//
// All prefetchers here follow the paper's placement (Figure 10): they sit
// between the L1 and L2 data caches, observe the L1 demand-miss stream, and
// issue prefetches that fill the L2 only (unless a request explicitly asks
// for L1 promotion, which only the hybrid TCP does).
package prefetch

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/trace"
)

// Request is one prefetch candidate produced on an L1 miss.
type Request struct {
	Addr addr.Addr // block address to fetch into L2
	ToL1 bool      // hybrid schemes: also promote into L1 when the victim is dead
}

// Prefetcher observes the L1 demand stream and proposes prefetches. Its
// tables are warm state, so every prefetcher is a checkpoint.Snapshotter.
type Prefetcher interface {
	checkpoint.Snapshotter
	// Name identifies the scheme (used in experiment tables).
	Name() string
	// OnMiss is invoked for every L1 demand miss and returns the prefetch
	// requests to issue (possibly none). The returned slice may alias a
	// scratch buffer owned by the prefetcher: it is valid only until the
	// next OnMiss/OnAccess call, and callers must consume (or copy) it
	// before invoking the prefetcher again.
	OnMiss(m trace.Miss) []Request
	// OnAccess is invoked for every L1 demand access, hit or miss, and may
	// also return prefetch requests. Most schemes ignore it; dead-block
	// correlating schemes trigger on accesses that complete a death trace.
	OnAccess(a, pc addr.Addr, cycle int64, hit bool) []Request
	// StorageBits returns the hardware budget of the scheme's tables.
	StorageBits() uint64
}

// None is the no-prefetching baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnMiss implements Prefetcher.
func (None) OnMiss(trace.Miss) []Request { return nil }

// OnAccess implements Prefetcher.
func (None) OnAccess(addr.Addr, addr.Addr, int64, bool) []Request { return nil }

// StorageBits implements Prefetcher.
func (None) StorageBits() uint64 { return 0 }

// NextLine prefetches the next Degree sequential blocks after each miss —
// the simplest spatial prefetcher, a useful calibration floor.
type NextLine struct {
	geom   addr.Geometry // address geometry fixed at construction
	degree int           // prefetch-degree configuration fixed at construction
	reqs   []Request     // scratch batch OnMiss returns
}

// NewNextLine creates a next-line prefetcher of the given degree (>=1)
// operating at g's block granularity.
func NewNextLine(g addr.Geometry, degree int) *NextLine {
	if degree < 1 {
		degree = 1
	}
	return &NextLine{geom: g, degree: degree, reqs: make([]Request, 0, degree)}
}

// Name implements Prefetcher.
func (p *NextLine) Name() string { return "nextline" }

// OnMiss implements Prefetcher.
func (p *NextLine) OnMiss(m trace.Miss) []Request {
	reqs := p.reqs[:0]
	for i := 1; i <= p.degree; i++ {
		reqs = append(reqs, Request{Addr: m.Addr + addr.Addr(i*p.geom.BlockBytes())})
	}
	return reqs
}

// OnAccess implements Prefetcher.
func (p *NextLine) OnAccess(addr.Addr, addr.Addr, int64, bool) []Request { return nil }

// StorageBits implements Prefetcher.
func (p *NextLine) StorageBits() uint64 { return 0 }
