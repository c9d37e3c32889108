package prefetch

import (
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

func ghbMiss(g addr.Geometry, a, pc addr.Addr) trace.Miss {
	return trace.MakeMiss(g, a, pc, 0, false)
}

func TestGHBLearnsRepeatingDeltaPattern(t *testing.T) {
	g := l1()
	p := NewGHB(g, 256, 2)
	pc := addr.Addr(0x400100)
	// Delta pattern +64, +32, +128 repeating from one PC.
	deltas := []int64{64, 32, 128}
	cur := int64(0x100000)
	var last []Request
	for i := 0; i < 12; i++ {
		last = p.OnMiss(ghbMiss(g, addr.Addr(cur), pc))
		cur += deltas[i%3]
	}
	if len(last) == 0 {
		t.Fatal("no predictions after repeated delta pattern")
	}
	// The prediction must continue the pattern from the current address.
	want := g.Block(addr.Addr(cur)) // cur already advanced by the next delta
	found := false
	for _, r := range last {
		if r.Addr == want {
			found = true
		}
	}
	if !found {
		t.Errorf("predictions %v missing %#x", last, want)
	}
}

func TestGHBNeedsHistory(t *testing.T) {
	g := l1()
	p := NewGHB(g, 64, 2)
	pc := addr.Addr(0x400100)
	for i := 0; i < 3; i++ {
		if reqs := p.OnMiss(ghbMiss(g, addr.Addr(0x1000+i*64), pc)); len(reqs) != 0 {
			t.Fatalf("predicted with %d-entry history: %v", i+1, reqs)
		}
	}
}

func TestGHBSeparatesPCs(t *testing.T) {
	g := l1()
	p := NewGHB(g, 256, 1)
	// PC A strides +64; PC B strides +4096, interleaved. Each batch is
	// read before the next OnMiss, which reuses its backing array.
	var gotA, gotB bool
	for i := 0; i < 16; i++ {
		for _, r := range p.OnMiss(ghbMiss(g, addr.Addr(0x100000+i*64), 0x400100)) {
			if r.Addr == g.Block(addr.Addr(0x100000+(i+1)*64)) {
				gotA = true
			}
		}
		for _, r := range p.OnMiss(ghbMiss(g, addr.Addr(0x800000+i*4096), 0x400200)) {
			if r.Addr == g.Block(addr.Addr(0x800000+(i+1)*4096)) {
				gotB = true
			}
		}
	}
	if !gotA || !gotB {
		t.Errorf("per-PC streams not separated: A=%v B=%v", gotA, gotB)
	}
}

func TestGHBBufferRecycling(t *testing.T) {
	g := l1()
	p := NewGHB(g, 8, 2) // tiny buffer: chains are constantly overwritten
	for i := 0; i < 1000; i++ {
		pc := addr.Addr(0x400100 + (i%5)*4)
		p.OnMiss(ghbMiss(g, addr.Addr(0x100000+i*64), pc)) // must not panic or loop
	}
}

func TestGHBRandomStreamSilent(t *testing.T) {
	g := l1()
	p := NewGHB(g, 256, 2)
	pc := addr.Addr(0x400100)
	s := uint64(12345)
	preds := 0
	for i := 0; i < 2000; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if reqs := p.OnMiss(ghbMiss(g, addr.Addr(s%(1<<24))&^31, pc)); len(reqs) > 0 {
			preds += len(reqs)
		}
	}
	if preds > 200 {
		t.Errorf("%d predictions on a random stream, want few", preds)
	}
}

func TestGHBStorageAndReset(t *testing.T) {
	g := l1()
	p := NewGHB(g, 512, 2)
	if p.StorageBits() == 0 {
		t.Error("zero storage")
	}
	if p.Name() != "ghb-pc/dc" {
		t.Errorf("name = %q", p.Name())
	}
	p.OnAccess(0, 0, 0, true)
	if NewGHB(g, 1, 0).degree != 1 {
		t.Error("degree clamp")
	}
}
