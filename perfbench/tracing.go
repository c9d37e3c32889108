package main

import (
	"time"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
	"tagprefetch/internal/workload"
)

// The traced machine is assembled from cpu.New with each interface the core
// and the memory system accept wrapped in a span recorder. Spans nest the
// way the calls do — the core's advance contains generator and memory
// spans, a memory access contains the prefetcher spans it triggers — so a
// layer's self time is its span time minus its children's span time.
// Wrappers are single-goroutine: one traced machine runs at a time.

// epoch anchors the span clock: time.Since on a monotonic reading is one
// clock read, where time.Now is two.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// calibrate measures the span clock's own cost: pair is the host time the
// two reads of one span take, empty what a span around nothing measures.
// A span around a call measures the call plus empty; its parent pays pair.
func calibrate() (pair, empty float64) {
	const n = 200_000
	var sum int64
	t0 := now()
	for i := 0; i < n; i++ {
		a := now()
		sum += now() - a
	}
	return float64(now()-t0) / n, float64(sum) / n
}

// spans accumulates the traced machine's call counts and raw span times.
type spans struct {
	nextCalls int64
	nextNS    int64

	hits, misses         int64
	hitNS, missNS        int64 // access span minus the prefetcher spans inside it
	hitPfCalls           int64 // prefetcher calls inside hit accesses
	missPfCalls          int64 // prefetcher calls inside miss accesses
	onMissCalls          int64
	onMissNS             int64
	onAccessCalls        int64
	onAccessNS           int64
	prefetchNSInAccesses int64
}

// tracedGen times workload.Generator.Next.
type tracedGen struct {
	workload.Generator
	s *spans
}

func (g tracedGen) Next(i *workload.Inst) {
	t0 := now()
	g.Generator.Next(i)
	g.s.nextNS += now() - t0
	g.s.nextCalls++
}

// tracedMem times memsys.MemSys.Access as the core's cpu.Memory. An access
// is a hit when its data is ready at the L1 hit latency; anything later
// went to an MSHR, the L2 or memory.
type tracedMem struct {
	m      *memsys.MemSys
	hitLat int64
	s      *spans
}

func (t tracedMem) Access(a, pc addr.Addr, write bool, cycle int64) int64 {
	pfNS, pfCalls := t.s.prefetchNSInAccesses, t.s.onMissCalls+t.s.onAccessCalls
	t0 := now()
	ready := t.m.Access(a, pc, write, cycle)
	self := now() - t0 - (t.s.prefetchNSInAccesses - pfNS)
	pfCalls = t.s.onMissCalls + t.s.onAccessCalls - pfCalls
	if ready <= cycle+t.hitLat {
		t.s.hits++
		t.s.hitNS += self
		t.s.hitPfCalls += pfCalls
	} else {
		t.s.misses++
		t.s.missNS += self
		t.s.missPfCalls += pfCalls
	}
	return ready
}

// tracedPrefetcher times the prefetcher hooks the memory system calls on
// its access path.
type tracedPrefetcher struct {
	prefetch.Prefetcher
	s *spans
}

func (p tracedPrefetcher) OnMiss(m trace.Miss) []prefetch.Request {
	t0 := now()
	r := p.Prefetcher.OnMiss(m)
	d := now() - t0
	p.s.onMissCalls++
	p.s.onMissNS += d
	p.s.prefetchNSInAccesses += d
	return r
}

func (p tracedPrefetcher) OnAccess(a, pc addr.Addr, cycle int64, hit bool) []prefetch.Request {
	t0 := now()
	r := p.Prefetcher.OnAccess(a, pc, cycle, hit)
	d := now() - t0
	p.s.onAccessCalls++
	p.s.onAccessNS += d
	p.s.prefetchNSInAccesses += d
	return r
}
