package prefetch

import (
	"runtime"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

func l1() addr.Geometry { return addr.MustGeometry(32*1024, 1, 32) }

func miss(g addr.Geometry, a addr.Addr, pc addr.Addr) trace.Miss {
	return trace.MakeMiss(g, a, pc, 0, false)
}

func TestNone(t *testing.T) {
	var p None
	if p.Name() != "none" || p.StorageBits() != 0 {
		t.Error("None metadata wrong")
	}
	if reqs := p.OnMiss(miss(l1(), 0x1000, 0)); reqs != nil {
		t.Error("None issued prefetches")
	}
	p.OnAccess(0, 0, 0, true)
}

func TestNextLine(t *testing.T) {
	g := l1()
	p := NewNextLine(g, 2)
	reqs := p.OnMiss(miss(g, 0x1000, 0))
	if len(reqs) != 2 {
		t.Fatalf("requests = %d, want 2", len(reqs))
	}
	if reqs[0].Addr != 0x1020 || reqs[1].Addr != 0x1040 {
		t.Errorf("targets = %#x %#x", reqs[0].Addr, reqs[1].Addr)
	}
	if reqs[0].ToL1 {
		t.Error("next-line must target L2 only")
	}
	if NewNextLine(g, 0).degree != 1 {
		t.Error("degree clamp failed")
	}
}

func TestStrideLearnsAndPrefetches(t *testing.T) {
	g := l1()
	p := NewStride(g, 8, 1)
	pc := addr.Addr(0x400100)
	// Misses at stride 128 from one PC: entry goes initial -> transient -> steady.
	var reqs []Request
	for i := 0; i < 4; i++ {
		reqs = p.OnMiss(miss(g, addr.Addr(0x10000+i*128), pc))
	}
	if len(reqs) != 1 {
		t.Fatalf("requests after training = %d, want 1", len(reqs))
	}
	want := g.Block(addr.Addr(0x10000 + 3*128 + 128))
	if reqs[0].Addr != want {
		t.Errorf("target = %#x, want %#x", reqs[0].Addr, want)
	}
}

func TestStrideIgnoresIrregularPC(t *testing.T) {
	g := l1()
	p := NewStride(g, 8, 1)
	pc := addr.Addr(0x400100)
	addrs := []addr.Addr{0x10000, 0x25000, 0x11000, 0x60000, 0x13000}
	for _, a := range addrs {
		if reqs := p.OnMiss(miss(g, a, pc)); len(reqs) != 0 {
			t.Fatalf("prefetched on irregular stream at %#x", a)
		}
	}
}

func TestStrideDistinctPCs(t *testing.T) {
	g := l1()
	p := NewStride(g, 8, 1)
	// Two PCs with different strides, interleaved: both must reach steady.
	got := map[addr.Addr]bool{}
	for i := 0; i < 6; i++ {
		for _, r := range p.OnMiss(miss(g, addr.Addr(0x10000+i*64), 0x400100)) {
			got[r.Addr] = true
		}
		for _, r := range p.OnMiss(miss(g, addr.Addr(0x80000+i*256), 0x400200)) {
			got[r.Addr] = true
		}
	}
	if len(got) < 4 {
		t.Errorf("interleaved PCs produced only %d prefetch targets", len(got))
	}
	if p.StorageBits() == 0 {
		t.Error("stride storage = 0")
	}
}

func TestStrideZeroAndNegative(t *testing.T) {
	g := l1()
	p := NewStride(g, 8, 4)
	pc := addr.Addr(0x400300)
	// Descending stride: must still prefetch (downward), stopping at 0.
	for i := 0; i < 4; i++ {
		p.OnMiss(miss(g, addr.Addr(0x10000-i*32), pc))
	}
	reqs := p.OnMiss(miss(g, addr.Addr(0x10000-4*32), pc))
	if len(reqs) == 0 {
		t.Fatal("no prefetch on steady negative stride")
	}
	for _, r := range reqs {
		if r.Addr >= 0x10000 {
			t.Errorf("negative-stride target %#x not below base", r.Addr)
		}
	}
	// Repeated same address (stride 0) must not prefetch.
	p2 := NewStride(g, 8, 1)
	for i := 0; i < 5; i++ {
		if reqs := p2.OnMiss(miss(g, 0x20000, pc)); len(reqs) != 0 {
			t.Fatal("prefetched on zero stride")
		}
	}
}

func TestStreamBuffersFollowStream(t *testing.T) {
	g := l1()
	p := NewStreamBuffers(g, 4, 4)
	// First miss allocates a buffer prefetching the next 4 blocks.
	reqs := p.OnMiss(miss(g, 0x10000, 0))
	if len(reqs) != 4 {
		t.Fatalf("allocation prefetches = %d, want 4", len(reqs))
	}
	if reqs[0].Addr != 0x10020 {
		t.Errorf("first target = %#x", reqs[0].Addr)
	}
	// Sequential miss hits the buffer head: one refill prefetch.
	reqs = p.OnMiss(miss(g, 0x10020, 0))
	if len(reqs) != 1 {
		t.Fatalf("refill prefetches = %d, want 1", len(reqs))
	}
}

func TestStreamBuffersLRUReplacement(t *testing.T) {
	g := l1()
	p := NewStreamBuffers(g, 2, 2)
	p.OnMiss(miss(g, 0x10000, 0)) // buffer A
	p.OnMiss(miss(g, 0x20000, 0)) // buffer B
	p.OnMiss(miss(g, 0x30000, 0)) // replaces A (LRU)
	// A's stream no longer tracked: a miss on its next block reallocates.
	reqs := p.OnMiss(miss(g, 0x10020, 0))
	if len(reqs) != 2 {
		t.Errorf("expected reallocation with depth prefetches, got %d", len(reqs))
	}
	if p.StorageBits() == 0 {
		t.Error("stream storage = 0")
	}
}

func TestMarkovLearnsSuccessors(t *testing.T) {
	g := l1()
	p := NewMarkov(10, 4, 2)
	a, b, c := addr.Addr(0x10000), addr.Addr(0x50000), addr.Addr(0x90000)
	// Train A -> B -> C twice.
	for i := 0; i < 2; i++ {
		p.OnMiss(miss(g, a, 0))
		p.OnMiss(miss(g, b, 0))
		p.OnMiss(miss(g, c, 0))
	}
	// Now on a miss to A, it must predict B.
	reqs := p.OnMiss(miss(g, a, 0))
	if len(reqs) == 0 || reqs[0].Addr != g.Block(b) {
		t.Fatalf("requests = %+v, want B first", reqs)
	}
}

func TestMarkovMultipleTargetsMRU(t *testing.T) {
	g := l1()
	p := NewMarkov(10, 4, 2)
	a, b, c := addr.Addr(0x10000), addr.Addr(0x50000), addr.Addr(0x90000)
	p.OnMiss(miss(g, a, 0))
	p.OnMiss(miss(g, b, 0)) // A -> B
	p.OnMiss(miss(g, a, 0))
	p.OnMiss(miss(g, c, 0)) // A -> C (now MRU)
	reqs := p.OnMiss(miss(g, a, 0))
	if len(reqs) != 2 {
		t.Fatalf("targets = %d, want 2", len(reqs))
	}
	if reqs[0].Addr != g.Block(c) || reqs[1].Addr != g.Block(b) {
		t.Errorf("MRU order wrong: %+v", reqs)
	}
}

func TestMarkovSelfLoopIgnored(t *testing.T) {
	g := l1()
	p := NewMarkov(10, 4, 2)
	a := addr.Addr(0x10000)
	p.OnMiss(miss(g, a, 0))
	reqs := p.OnMiss(miss(g, a, 0)) // repeated miss: no self successor learned
	if len(reqs) != 0 {
		t.Errorf("self-loop produced prefetches: %+v", reqs)
	}
}

func TestMarkovStorageAndReset(t *testing.T) {
	p := NewMarkov(10, 4, 2)
	if p.StorageBits() != 1024*4*3*40 {
		t.Errorf("storage = %d", p.StorageBits())
	}
}

// TestMarkovHostFootprint pins the host cost of constructing the Markov
// baseline: a fresh table takes pools for 4096 of its 32768 sets. The
// full table took about 5 MB.
func TestMarkovHostFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := NewMarkov(15, 4, 2)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 2_000_000 {
		t.Errorf("NewMarkov(15, 4, 2) allocates %d bytes, want less than 2 MB", b)
	}
}
