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
	m, ok := f.Allocate(g, a, 100, false)
	if !ok || m == nil || m.Demands != 1 {
		t.Fatalf("alloc = %+v ok=%v", m, ok)
	}
	// Same block, different offset: merges.
	m2, ok := f.Allocate(g, a+8, 120, false)
	if !ok || m2 != m || m2.Demands != 2 {
		t.Fatalf("merge = %+v ok=%v", m2, ok)
	}
	if f.InFlight() != 1 {
		t.Errorf("in flight = %d", f.InFlight())
	}
	s := f.Stats()
	if s.Allocations != 1 || s.Merges != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(2)
	f.Allocate(g, 0x0000, 50, false)
	f.Allocate(g, 0x2000, 80, false)
	if _, ok := f.Allocate(g, 0x4000, 90, false); ok {
		t.Fatal("allocation succeeded on full file")
	}
	if f.Stats().FullStalls != 1 {
		t.Errorf("full stalls = %d", f.Stats().FullStalls)
	}
	if f.EarliestReady() != 50 {
		t.Errorf("earliest = %d, want 50", f.EarliestReady())
	}
	if n := f.ReleaseBefore(50); n != 1 {
		t.Errorf("released %d, want 1", n)
	}
	if _, ok := f.Allocate(g, 0x4000, 90, false); !ok {
		t.Error("allocation failed after release")
	}
}

func TestMSHRPrefetchPromotion(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(4)
	m, _ := f.Allocate(g, 0x1000, 100, true)
	if !m.Prefetch || m.Demands != 0 {
		t.Fatalf("prefetch entry = %+v", m)
	}
	// A demand miss to the same in-flight block demotes it to a demand miss.
	m2, _ := f.Allocate(g, 0x1000, 100, false)
	if m2.Prefetch || m2.Demands != 1 {
		t.Errorf("promoted entry = %+v", m2)
	}
}

func TestMSHRLookup(t *testing.T) {
	g := l1geom()
	f := NewMSHRFile(4)
	if _, ok := f.Lookup(g, 0x1000); ok {
		t.Error("lookup hit on empty file")
	}
	f.Allocate(g, 0x1000, 10, false)
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
	f.Allocate(g, 0x1000, 10, false)
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
	capacity int
	entries  []MSHR // slot unused
	stats    MSHRStats
}

func (o *mshrOracle) find(id uint64) int {
	for i := range o.entries {
		if o.entries[i].Block == id {
			return i
		}
	}
	return -1
}

func (o *mshrOracle) allocate(id uint64, readyAt int64, prefetch bool) (MSHR, bool) {
	if i := o.find(id); i >= 0 {
		o.stats.Merges++
		if !prefetch {
			o.entries[i].Demands++
			o.entries[i].Prefetch = false
		}
		return o.entries[i], true
	}
	if len(o.entries) >= o.capacity {
		o.stats.FullStalls++
		return MSHR{}, false
	}
	m := MSHR{Block: id, ReadyAt: readyAt, Prefetch: prefetch}
	if !prefetch {
		m.Demands = 1
	}
	o.entries = append(o.entries, m)
	o.stats.Allocations++
	return m, true
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
// Save/Restore round trip into a fresh file — and must agree after every step on returned
// entries, release counts, stall horizon, in-flight count, the full entry
// set, and the activity counters. 64 blocks in a 16-entry
// file keep the file full and the chains and heap tombstones busy.
func TestMSHRFastIndexEquivalence(t *testing.T) {
	g := l1geom()
	const blocks, cap = 64, 16
	f := NewMSHRFile(cap)
	o := &mshrOracle{capacity: cap}

	rng := uint64(0x9E3779B97F4A7C15) // deterministic LCG state
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	same := func(m *MSHR, want MSHR) bool {
		return m.Block == want.Block && m.ReadyAt == want.ReadyAt &&
			m.Demands == want.Demands && m.Prefetch == want.Prefetch
	}

	now := int64(0)
	for step := 0; step < 20000; step++ {
		now++
		a := addr.Addr(next(blocks) * 0x40)
		id := g.BlockID(a)
		switch op := next(100); {
		case op < 40: // allocate/merge
			ready := now + 1 + int64(next(200))
			pf := next(4) == 0
			m, ok := f.Allocate(g, a, ready, pf)
			want, wantOK := o.allocate(id, ready, pf)
			if ok != wantOK || ok && !same(m, want) {
				t.Fatalf("step %d: Allocate = %+v/%v, want %+v/%v", step, m, ok, want, wantOK)
			}
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
			o.entries, o.stats = o.entries[:0], MSHRStats{}
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
		if s := f.Stats(); s != o.stats {
			t.Fatalf("step %d: Stats = %+v, want %+v", step, s, o.stats)
		}
	}
}

// repeatedBlock encodes an MSHR section that lists one block twice.
type repeatedBlock struct{}

func (repeatedBlock) Snapshot(c *checkpoint.Codec) {
	var stats [3]uint64
	c.Section("mshr")
	for i := range stats {
		c.U64(&stats[i])
	}
	c.Count(2, 2)
	for i := 0; i < 2; i++ {
		e := MSHR{Block: 0x40, ReadyAt: 100, Demands: 1}
		c.U64(&e.Block)
		c.I64(&e.ReadyAt)
		c.Int(&e.Demands)
		c.Bool(&e.Prefetch)
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
				if _, ok := f.Allocate(g, addr.Addr(k*32), k+int64(n), false); !ok {
					b.Fatalf("allocate %d stalled with %d in flight", k, f.InFlight())
				}
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
