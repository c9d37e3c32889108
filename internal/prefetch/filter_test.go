package prefetch

import (
	"testing"

	"tagprefetch/internal/critical"
	"tagprefetch/internal/trace"
)

func TestCriticalFilteredGating(t *testing.T) {
	g := l1()
	inner := NewNextLine(g, 1)
	pred := critical.New(8)
	f := NewCriticalFiltered(inner, pred)

	if f.Name() != "nextline+critfilter" {
		t.Errorf("name = %q", f.Name())
	}

	// Cold start: everything passes.
	m := trace.MakeMiss(g, 0x1000, 0x400100, 0, false)
	if reqs := f.OnMiss(m); len(reqs) != 1 {
		t.Fatalf("cold-start requests = %d", len(reqs))
	}

	// Train PC 0x400100 non-critical past the cold-start window.
	for i := 0; i < 128; i++ {
		pred.Train(0x400100, false)
	}
	if reqs := f.OnMiss(m); len(reqs) != 0 {
		t.Errorf("non-critical PC not gated: %+v", reqs)
	}

	// A critical PC passes.
	for i := 0; i < 8; i++ {
		pred.Train(0x400200, true)
	}
	m2 := trace.MakeMiss(g, 0x2000, 0x400200, 0, false)
	if reqs := f.OnMiss(m2); len(reqs) != 1 {
		t.Errorf("critical PC gated: %+v", reqs)
	}
}

func TestCriticalFilteredPassthrough(t *testing.T) {
	g := l1()
	pred := critical.New(8)
	f := NewCriticalFiltered(NewNextLine(g, 1), pred)
	if f.StorageBits() != pred.StorageBits() {
		t.Errorf("storage = %d (next-line has none; want predictor only)", f.StorageBits())
	}
	if reqs := f.OnAccess(0x1000, 0x400100, 0, true); reqs != nil {
		t.Errorf("next-line OnAccess produced requests: %+v", reqs)
	}
}
