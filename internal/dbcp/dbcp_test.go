package dbcp

import (
	"runtime"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
)

func l1() addr.Geometry { return addr.MustGeometry(32*1024, 1, 32) }

func TestDefaults(t *testing.T) {
	d := New(Config{L1: l1()})
	if d.cfg.TableEntries != 262144 || d.cfg.Ways != 8 || d.cfg.SigBits != 16 {
		t.Errorf("defaults = %+v", d.cfg)
	}
	if d.StorageBits()/8 != 2*1024*1024 {
		t.Errorf("storage = %d bytes, want 2MB", d.StorageBits()/8)
	}
	if d.Name() != "dbcp-2M" {
		t.Errorf("name = %q", d.Name())
	}
}

func TestBadTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{L1: l1(), TableEntries: 3000, Ways: 8})
}

// driveBlockLife simulates: block A filled at set s, touched by the PC
// sequence pcs, then replaced by block B (a miss to B at the same set).
func driveBlockLife(d *DBCP, g addr.Geometry, a, b addr.Addr, pcs []addr.Addr) []prefetch.Request {
	d.OnMiss(trace.MakeMiss(g, a, pcs[0], 0, false))
	var last []prefetch.Request
	for _, pc := range pcs {
		last = d.OnAccess(a, pc, 0, true)
	}
	d.OnMiss(trace.MakeMiss(g, b, 0, 0, false))
	return last
}

func TestLearnsDeathAndPredicts(t *testing.T) {
	g := l1()
	d := New(Config{L1: g, TableEntries: 4096, Ways: 8})
	pcs := []addr.Addr{0x400100, 0x400104, 0x400108}
	a := g.Compose(10, 7)
	b := g.Compose(20, 7)

	// First lifetime: learn (a, sig(pcs)) -> b.
	reqs := driveBlockLife(d, g, a, b, pcs)
	if len(reqs) != 0 {
		t.Fatalf("predicted during first lifetime: %+v", reqs)
	}
	// Second lifetime of a with the same PC trace: on the last access the
	// signature matches the learned death and b is prefetched.
	d.OnMiss(trace.MakeMiss(g, a, pcs[0], 0, false))
	var got []prefetch.Request
	for _, pc := range pcs {
		if r := d.OnAccess(a, pc, 0, true); len(r) > 0 {
			got = r
		}
	}
	if len(got) != 1 || got[0].Addr != b {
		t.Fatalf("prediction = %+v, want %#x", got, b)
	}
	s := d.Stats()
	if s.Deaths == 0 || s.Predictions == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDifferentTraceNoPrediction(t *testing.T) {
	g := l1()
	d := New(Config{L1: g, TableEntries: 4096, Ways: 8})
	a := g.Compose(10, 7)
	b := g.Compose(20, 7)
	driveBlockLife(d, g, a, b, []addr.Addr{0x400100, 0x400104})
	// Second lifetime with a different PC trace: signature differs, no hit.
	d.OnMiss(trace.MakeMiss(g, a, 0x400200, 0, false))
	for _, pc := range []addr.Addr{0x400200, 0x400204} {
		if r := d.OnAccess(a, pc, 0, true); len(r) != 0 {
			t.Fatalf("predicted despite different trace: %+v", r)
		}
	}
}

func TestSelfTargetSuppressed(t *testing.T) {
	g := l1()
	d := New(Config{L1: g, TableEntries: 4096, Ways: 8})
	a := g.Compose(10, 7)
	// Lifetime ends with a miss to the same block address (pathological):
	// learned target == block; prediction must be suppressed.
	d.OnMiss(trace.MakeMiss(g, a, 0x400100, 0, false))
	d.OnAccess(a, 0x400100, 0, true)
	d.OnMiss(trace.MakeMiss(g, a, 0, 0, false)) // "replaced" by itself
	d.OnAccess(a, 0x400100, 0, true)
	// The (a, sig) entry targets a itself -> no request.
	if r := d.OnAccess(a, 0, 0, true); len(r) != 0 {
		t.Errorf("self prediction not suppressed: %+v", r)
	}
}

func TestPerSetIsolation(t *testing.T) {
	g := l1()
	d := New(Config{L1: g, TableEntries: 4096, Ways: 8})
	pcs := []addr.Addr{0x400100, 0x400104}
	// Train a death in set 7.
	driveBlockLife(d, g, g.Compose(10, 7), g.Compose(20, 7), pcs)
	// The same tag in a different set has a different block address:
	// no correlation hit.
	d.OnMiss(trace.MakeMiss(g, g.Compose(10, 9), pcs[0], 0, false))
	for _, pc := range pcs {
		if r := d.OnAccess(g.Compose(10, 9), pc, 0, true); len(r) != 0 {
			t.Fatalf("address-based scheme leaked across sets: %+v", r)
		}
	}
}

func TestResyncOnUnexpectedBlock(t *testing.T) {
	g := l1()
	d := New(Config{L1: g, TableEntries: 4096, Ways: 8})
	// Access without a preceding miss: the shadow resyncs silently.
	if r := d.OnAccess(g.Compose(3, 1), 0x400100, 0, true); r != nil {
		t.Errorf("unexpected prediction: %+v", r)
	}
}

// TestDBCP2MHostFootprint pins the host cost of constructing the paper's
// 2 MB configuration: a fresh correlation table takes pools for 4096 of
// its 32768 sets. The full table took 8 MB.
func TestDBCP2MHostFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(DBCP2M(l1()))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 2_000_000 {
		t.Errorf("New(DBCP2M) allocates %d bytes, want less than 2 MB", b)
	}
}
