package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("memsys.l1.misses", "L1 demand misses")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Create-or-get returns the same instance.
	if r.Counter("memsys.l1.misses", "") != c {
		t.Error("Counter() did not return the registered instance")
	}
	g := r.Gauge("run.ipc", "measured IPC")
	g.Set(1.25)
	if g.Value() != 1.25 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestSubPrefixAndSnapshot(t *testing.T) {
	r := NewRegistry()
	l1 := r.Sub("memsys").Sub("l1")
	l1.Counter("misses", "L1 misses").Add(7)
	r.Counter("cpu.instructions", "retired").Add(100)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(snap))
	}
	// Sorted by full name.
	if snap[0].Name != "cpu.instructions" || snap[1].Name != "memsys.l1.misses" {
		t.Errorf("snapshot names = %q, %q", snap[0].Name, snap[1].Name)
	}
	if snap[1].Count != 7 {
		t.Errorf("memsys.l1.misses = %d, want 7", snap[1].Count)
	}

	// A Sub view snapshots only its prefix.
	sub := r.Sub("memsys").Snapshot()
	if len(sub) != 1 || sub[0].Name != "memsys.l1.misses" {
		t.Errorf("sub snapshot = %+v", sub)
	}
}

func TestAttachExistingMetrics(t *testing.T) {
	c := NewCounter("hits", "demand hits")
	c.Add(3)
	r := NewRegistry()
	r.Sub("memsys.l2").Attach(c)
	read := r.Reader("memsys.l2.hits")
	if got := read(); got != 3 {
		t.Fatalf("Reader after Attach = %v, want 3", got)
	}
	if got := r.Reader("memsys.l2.misses")(); got != 0 {
		t.Errorf("Reader of an absent metric = %v, want 0", got)
	}
	if v := r.Snapshot()[0]; v.Name != "memsys.l2.hits" || v.Count != 3 {
		t.Errorf("snapshot = %+v", v)
	}
	c.Inc()
	if got := read(); got != 4 {
		t.Errorf("Reader after Inc = %v, want 4", got)
	}
}

// TestRegistryConcurrency exercises concurrent Add/Set/Snapshot; run
// under -race this is the registry's thread-safety guarantee.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("memsys.accesses", "demand accesses")
	g := r.Gauge("ipc", "ipc")

	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				g.Set(float64(i))
				// Concurrent registration of new metrics must be safe too.
				r.Counter("dyn.counter", "registered concurrently").Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, mv := range r.Snapshot() {
				_ = mv.Value
			}
		}
	}()
	wg.Wait()
	<-done

	if c.Value() != writers*perWriter {
		t.Errorf("accesses = %d, want %d", c.Value(), writers*perWriter)
	}
	if dyn := r.Reader("dyn.counter")(); dyn != writers*perWriter {
		t.Errorf("dyn.counter = %v", dyn)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("x", "")
	r.Gauge("x", "")
}
