package prefetch

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

// StreamBuffers models Jouppi's prefetch stream buffers [10]: a small set
// of FIFOs, each following one sequential stream of cache blocks. A miss
// that matches the head of a buffer consumes it and extends the stream; a
// miss that matches no buffer (re)allocates the least-recently-used buffer
// starting at the next block.
type StreamBuffers struct {
	geom    addr.Geometry // address geometry fixed at construction
	depth   int           // per-buffer depth configuration fixed at construction
	buffers []streamBuf
	clock   int64
	reqs    []Request // scratch batch OnMiss returns
}

type streamBuf struct {
	valid bool
	next  addr.Addr // block address at the buffer head
	left  int       // remaining prefetched blocks in the FIFO
	used  int64     // recency
}

// NewStreamBuffers creates n stream buffers of the given depth.
func NewStreamBuffers(g addr.Geometry, n, depth int) *StreamBuffers {
	if n < 1 {
		n = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &StreamBuffers{geom: g, depth: depth, buffers: make([]streamBuf, n),
		reqs: make([]Request, 0, depth)}
}

// Name implements Prefetcher.
func (p *StreamBuffers) Name() string { return "stream" }

// OnMiss implements Prefetcher.
func (p *StreamBuffers) OnMiss(m trace.Miss) []Request {
	p.clock++
	blockBytes := addr.Addr(p.geom.BlockBytes())
	for i := range p.buffers {
		b := &p.buffers[i]
		if b.valid && b.left > 0 && b.next == m.Addr {
			// Head hit: stream advances, prefetch one more block to refill.
			b.next += blockBytes
			b.used = p.clock
			return append(p.reqs[:0], Request{Addr: b.next + addr.Addr(b.left-1)*blockBytes})
		}
	}
	// Allocate LRU buffer and prefetch the next `depth` blocks.
	victim := 0
	for i := range p.buffers {
		if !p.buffers[i].valid {
			victim = i
			break
		}
		if p.buffers[i].used < p.buffers[victim].used {
			victim = i
		}
	}
	b := &p.buffers[victim]
	*b = streamBuf{valid: true, next: m.Addr + blockBytes, left: p.depth, used: p.clock}
	reqs := p.reqs[:0]
	for i := 0; i < p.depth; i++ {
		reqs = append(reqs, Request{Addr: b.next + addr.Addr(i)*blockBytes})
	}
	return reqs
}

// OnAccess implements Prefetcher.
func (p *StreamBuffers) OnAccess(addr.Addr, addr.Addr, int64, bool) []Request { return nil }

// StorageBits implements Prefetcher: each buffer holds `depth` block
// addresses (~40b each) plus a head pointer.
func (p *StreamBuffers) StorageBits() uint64 {
	return uint64(len(p.buffers)) * uint64(p.depth+1) * 40
}
