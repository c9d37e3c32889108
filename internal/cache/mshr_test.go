package cache

import (
	"fmt"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
)

func TestMSHRAllocateAndMerge(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(4)
	a := addr.Addr(0x1000)
	f.Allocate(g, a, 100)
	// Same block, different offset: a merging miss finds the entry.
	m, ok := f.Lookup(g, a+8)
	if !ok || m.Block != g.BlockID(a) || m.ReadyAt != 100 {
		t.Fatalf("merge lookup = %+v ok=%v", m, ok)
	}
	if f.InFlight() != 1 {
		t.Errorf("in flight = %d", f.InFlight())
	}
}

func TestMSHRFullStalls(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(2)
	f.Allocate(g, 0x0000, 50)
	f.Allocate(g, 0x2000, 80)
	if f.InFlight() != f.Capacity() {
		t.Fatalf("in flight = %d, want a full file of %d", f.InFlight(), f.Capacity())
	}
	if f.EarliestReady() != 50 {
		t.Errorf("earliest = %d, want 50", f.EarliestReady())
	}
	if n := f.ReleaseBefore(50); n != 1 {
		t.Errorf("released %d, want 1", n)
	}
	f.Allocate(g, 0x4000, 90)
	if _, ok := f.Lookup(g, 0x4000); !ok || f.InFlight() != 2 {
		t.Errorf("allocation after release: found=%v, in flight %d", ok, f.InFlight())
	}
}

func TestMSHRLookup(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(4)
	if _, ok := f.Lookup(g, 0x1000); ok {
		t.Error("lookup hit on empty file")
	}
	f.Allocate(g, 0x1000, 10)
	if m, ok := f.Lookup(g, 0x1010); !ok || m.ReadyAt != 10 {
		t.Errorf("lookup = %+v ok=%v", m, ok)
	}
}

func TestMSHREmptyEarliestAndReset(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(3)
	if f.EarliestReady() != 0 {
		t.Errorf("earliest on empty = %d", f.EarliestReady())
	}
	f.Allocate(g, 0x1000, 10)
	if f.EarliestReady() != 10 {
		t.Errorf("earliest with one entry = %d, want 10", f.EarliestReady())
	}
	if f.Capacity() != 3 {
		t.Errorf("capacity = %d", f.Capacity())
	}
}

func TestMSHRBadCapacityClamped(t *testing.T) {
	f := NewMSHRFile(0)
	if f.Capacity() != 1 {
		t.Errorf("capacity = %d, want 1", f.Capacity())
	}
}

// mshrOracle is the naive model of an MSHR file the differential test
// checks against: a slice of in-flight entries searched linearly.
type mshrOracle struct {
	entries []MSHR // slot unused
}

func (o *mshrOracle) find(id uint64) int {
	for i := range o.entries {
		if o.entries[i].Block == id {
			return i
		}
	}
	return -1
}

func (o *mshrOracle) allocate(id uint64, readyAt int64) {
	o.entries = append(o.entries, MSHR{Block: id, ReadyAt: readyAt})
}

func (o *mshrOracle) remove(id uint64) {
	if i := o.find(id); i >= 0 {
		o.entries = append(o.entries[:i], o.entries[i+1:]...)
	}
}

func (o *mshrOracle) releaseBefore(now int64) int {
	keep := o.entries[:0]
	for _, m := range o.entries {
		if m.ReadyAt > now {
			keep = append(keep, m)
		}
	}
	n := len(o.entries) - len(keep)
	o.entries = keep
	return n
}

func (o *mshrOracle) earliestReady() int64 {
	min := int64(0)
	for _, m := range o.entries {
		if min == 0 || m.ReadyAt < min {
			min = m.ReadyAt
		}
	}
	return min
}

func (o *mshrOracle) quiesce(max int64) {
	for i := range o.entries {
		if o.entries[i].ReadyAt > max {
			o.entries[i].ReadyAt = max
		}
	}
}

// TestMSHRFastIndexEquivalence checks the MSHR file's chained index and
// ready heap against the naive oracle: both are driven through the same
// pseudo-random operation sequence — Allocate, Lookup, Remove,
// ReleaseBefore, EarliestReady, Quiesce, a restart on a fresh file and a
// Save/Restore round trip into a fresh file — and must agree after every
// step on returned entries, release counts, stall horizon, in-flight count
// and the full entry set. Allocate is driven as memsys drives it: a block
// already in flight merges through Lookup, and a full file first retires
// its earliest fills. 64 blocks in a 16-entry file keep the file full and
// the chains and heap tombstones busy.
func TestMSHRFastIndexEquivalence(t *testing.T) {
	g := l1geom()
	const blocks, cap = 64, 16
	f := NewMSHRFile(cap)
	o := &mshrOracle{}

	rng := uint64(0x9E3779B97F4A7C15) // deterministic LCG state
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	same := func(m *MSHR, want MSHR) bool {
		return m.Block == want.Block && m.ReadyAt == want.ReadyAt
	}

	now := int64(0)
	for step := 0; step < 20000; step++ {
		now++
		a := addr.Addr(next(blocks) * 0x40)
		id := g.BlockID(a)
		switch op := next(100); {
		case op < 40: // merge, or stall on a full file and allocate
			if i := o.find(id); i >= 0 {
				if m, ok := f.Lookup(g, a); !ok || !same(m, o.entries[i]) {
					t.Fatalf("step %d: merge Lookup = %+v/%v, want %+v", step, m, ok, o.entries[i])
				}
				break
			}
			if len(o.entries) == cap {
				e := o.earliestReady()
				if got := f.EarliestReady(); got != e {
					t.Fatalf("step %d: stall EarliestReady = %d, want %d", step, got, e)
				}
				if n, want := f.ReleaseBefore(e), o.releaseBefore(e); n != want || n == 0 {
					t.Fatalf("step %d: stall ReleaseBefore(%d) = %d, want %d > 0", step, e, n, want)
				}
			}
			ready := now + 1 + int64(next(200))
			f.Allocate(g, a, ready)
			o.allocate(id, ready)
		case op < 55: // lookup
			m, ok := f.Lookup(g, a)
			i := o.find(id)
			if ok != (i >= 0) || ok && !same(m, o.entries[i]) {
				t.Fatalf("step %d: Lookup = %+v/%v, want index %d", step, m, ok, i)
			}
		case op < 65: // retire one
			f.Remove(g, a)
			o.remove(id)
		case op < 78: // bulk release, as the full-file stall path does
			h := now - int64(next(100))
			if n, want := f.ReleaseBefore(h), o.releaseBefore(h); n != want {
				t.Fatalf("step %d: ReleaseBefore(%d) = %d, want %d", step, h, n, want)
			}
		case op < 90: // stall horizon
			if e, want := f.EarliestReady(), o.earliestReady(); e != want {
				t.Fatalf("step %d: EarliestReady = %d, want %d", step, e, want)
			}
		case op < 94: // clamp, as the fast-warmup boundary does
			max := now + int64(next(50))
			f.Quiesce(max)
			o.quiesce(max)
		case op < 95: // start over on a fresh file
			f = NewMSHRFile(cap)
			o.entries = o.entries[:0]
		default: // checkpoint round trip into a fresh file
			img := checkpoint.Encode(f)
			f = NewMSHRFile(cap)
			if err := checkpoint.Decode(img, f); err != nil {
				t.Fatalf("step %d: Decode: %v", step, err)
			}
		}
		if f.InFlight() != len(o.entries) {
			t.Fatalf("step %d: InFlight = %d, want %d", step, f.InFlight(), len(o.entries))
		}
		for b := uint64(0); b < blocks; b++ {
			m, ok := f.Lookup(g, addr.Addr(b*0x40))
			i := o.find(g.BlockID(addr.Addr(b * 0x40)))
			if ok != (i >= 0) || ok && !same(m, o.entries[i]) {
				t.Fatalf("step %d: block %d = %+v/%v, oracle index %d", step, b, m, ok, i)
			}
		}
	}
}

// repeatedBlock encodes an MSHR section that lists one block twice.
type repeatedBlock struct{}

func (repeatedBlock) Snapshot(c *checkpoint.Codec) {
	c.Section("mshr")
	c.Count(2, 2)
	for i := 0; i < 2; i++ {
		e := MSHR{Block: 0x40, ReadyAt: 100}
		c.U64(&e.Block)
		c.I64(&e.ReadyAt)
	}
}

// TestMSHRRestoreRejectsRepeatedBlock: an image that lists one block twice
// cannot come from an encoding file, and decoding it would put two entries
// for one block in the index.
func TestMSHRRestoreRejectsRepeatedBlock(t *testing.T) {
	if err := checkpoint.Decode(checkpoint.Encode(repeatedBlock{}), NewMSHRFile(4)); err == nil {
		t.Error("Decode accepted a block listed twice")
	}
}

// BenchmarkMSHRAllocateRetire times one retire plus one allocate on a full
// MSHR file in steady state, at Table 1's 64 entries and at 2048: op k
// retires the fill that completes at cycle k through ReleaseBefore and
// allocates block k, due n cycles later. Neither may allocate; the time is
// reported only.
func BenchmarkMSHRAllocateRetire(b *testing.B) {
	for _, n := range []int{64, 2048} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			g := l1geom()
			f := NewMSHRFile(n)
			k := int64(0)
			op := func() {
				f.ReleaseBefore(k)
				if f.InFlight() == n {
					b.Fatalf("allocate %d would stall with %d in flight", k, n)
				}
				f.Allocate(g, addr.Addr(k*32), k+int64(n))
				k++
			}
			for k < int64(n) {
				op()
			}
			if a := testing.AllocsPerRun(1000, op); a != 0 {
				b.Fatalf("allocate/retire allocates %v times per op", a)
			}
			if f.InFlight() != n {
				b.Fatalf("%d in flight, want a full file of %d", f.InFlight(), n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
