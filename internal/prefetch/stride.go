package prefetch

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

// Stride is a Baer-Chen reference prediction table [2]: per load/store PC
// it tracks the last miss address and the last stride, and once the stride
// repeats (the entry reaches the steady state) it prefetches ahead.
type Stride struct {
	geom    addr.Geometry // address geometry fixed at construction
	entries []strideEntry
	mask    uint64    // geometry derived from the table size at construction
	degree  int       // prefetch-degree configuration fixed at construction
	reqs    []Request // scratch batch OnMiss returns
}

type strideEntry struct {
	pc     uint64
	last   addr.Addr
	stride int64
	state  uint8 // 0 initial, 1 transient, 2 steady
	valid  bool
}

// NewStride creates a stride prefetcher with 2^bits table entries issuing
// `degree` prefetches ahead once steady.
func NewStride(g addr.Geometry, bits uint, degree int) *Stride {
	if degree < 1 {
		degree = 1
	}
	n := 1 << bits
	return &Stride{
		geom:    g,
		entries: make([]strideEntry, n),
		mask:    uint64(n - 1),
		degree:  degree,
		reqs:    make([]Request, 0, degree),
	}
}

// Name implements Prefetcher.
func (p *Stride) Name() string { return "stride" }

// OnMiss implements Prefetcher.
func (p *Stride) OnMiss(m trace.Miss) []Request {
	e := &p.entries[(uint64(m.PC)>>2)&p.mask]
	if !e.valid || e.pc != uint64(m.PC) {
		*e = strideEntry{pc: uint64(m.PC), last: m.Addr, valid: true}
		return nil
	}
	stride := int64(m.Addr) - int64(e.last)
	switch {
	case stride == 0:
		return nil
	case e.state == 0:
		e.stride = stride
		e.state = 1
	case stride == e.stride && e.state < 2:
		e.state = 2
	case stride == e.stride:
		// stays steady
	default:
		e.stride = stride
		e.state = 1
	}
	e.last = m.Addr
	if e.state != 2 {
		return nil
	}
	reqs := p.reqs[:0]
	for i := 1; i <= p.degree; i++ {
		target := int64(m.Addr) + int64(i)*e.stride
		if target <= 0 {
			break
		}
		reqs = append(reqs, Request{Addr: p.geom.Block(addr.Addr(target))})
	}
	return reqs
}

// OnAccess implements Prefetcher.
func (p *Stride) OnAccess(addr.Addr, addr.Addr, int64, bool) []Request { return nil }

// StorageBits implements Prefetcher. Each entry stores a PC tag (~32b), a
// last address (~40b), a stride (~16b) and 2 state bits.
func (p *Stride) StorageBits() uint64 {
	return uint64(len(p.entries)) * (32 + 40 + 16 + 2)
}
