package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"tagprefetch/internal/addr"
)

func l1geom() addr.Geometry   { return addr.MustGeometry(32*1024, 1, 32) }
func l2geom() addr.Geometry   { return addr.MustGeometry(1<<20, 4, 64) }
func tinyGeom() addr.Geometry { return addr.MustGeometry(256, 2, 32) } // 4 sets x 2 ways

func TestMissThenFillThenHit(t *testing.T) {
	c := New("L1D", l1geom())
	a := addr.Addr(0x1000)
	if r := c.Access(a, false, 10); r.Hit {
		t.Fatal("hit on empty cache")
	}
	c.Fill(a, 10, 20, false)
	r := c.Access(a, false, 25)
	if !r.Hit {
		t.Fatal("miss after fill")
	}
	if r.ReadyAt != 25 {
		t.Errorf("ReadyAt = %d, want 25 (settled)", r.ReadyAt)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInFlightFillPaysRemainingLatency(t *testing.T) {
	c := New("L1D", l1geom())
	a := addr.Addr(0x2000)
	c.Fill(a, 10, 100, true) // prefetch in flight until cycle 100
	r := c.Access(a, false, 50)
	if !r.Hit || r.ReadyAt != 100 {
		t.Errorf("result = %+v, want hit ready at 100", r)
	}
	if !r.Prefetched {
		t.Error("hit should be attributed to prefetch")
	}
	s := c.Stats()
	if s.LateHits != 1 || s.HitsOnPrefetch != 1 {
		t.Errorf("stats = %+v", s)
	}
	// Second access: line no longer counts as prefetched.
	r2 := c.Access(a, false, 200)
	if r2.Prefetched {
		t.Error("prefetched flag should clear after first demand touch")
	}
}

func TestWriteSetsDirtyAndEvictionWritesBack(t *testing.T) {
	g := tinyGeom() // 4 sets, 2 ways, 32B blocks
	c := New("tiny", g)
	// Three blocks mapping to set 0: index = (a>>5) & 3. Set stride = 4*32 = 128.
	a0, a1, a2 := addr.Addr(0), addr.Addr(128), addr.Addr(256)
	c.Fill(a0, 0, 0, false)
	c.Access(a0, true, 1) // dirty a0
	c.Fill(a1, 2, 2, false)
	ev := c.Fill(a2, 3, 3, false) // evicts LRU = a0 (a1 filled later)
	if !ev.Valid || ev.Addr != a0 || !ev.Dirty {
		t.Errorf("eviction = %+v, want dirty a0", ev)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestLRUOrderRespectsAccesses(t *testing.T) {
	g := tinyGeom()
	c := New("tiny", g)
	a0, a1, a2 := addr.Addr(0), addr.Addr(128), addr.Addr(256)
	c.Fill(a0, 0, 0, false)
	c.Fill(a1, 1, 1, false)
	c.Access(a0, false, 2) // a0 now MRU
	ev := c.Fill(a2, 3, 3, false)
	if !ev.Valid || ev.Addr != a1 {
		t.Errorf("evicted %+v, want a1", ev)
	}
	if !c.Probe(a0) || c.Probe(a1) || !c.Probe(a2) {
		t.Error("wrong residency after eviction")
	}
}

func TestFillMergesExistingBlock(t *testing.T) {
	c := New("L1D", l1geom())
	a := addr.Addr(0x3000)
	c.Fill(a, 0, 50, false)
	ev := c.Fill(a, 10, 30, true) // prefetch to same block: merge, keep earliest ready
	if ev.Valid {
		t.Errorf("merge must not evict: %+v", ev)
	}
	if n := validLines(c); n != 1 {
		t.Errorf("occupancy = %d", n)
	}
	res := c.Access(a, false, 20)
	if !res.Hit || res.ReadyAt != 30 {
		t.Errorf("access = %+v, want a hit ready at 30", res)
	}
	if res.Prefetched {
		t.Error("demand-filled line must not become prefetched by merge")
	}
}

func TestUnusedPrefetchEvictionCounted(t *testing.T) {
	g := tinyGeom()
	c := New("tiny", g)
	a0, a1, a2 := addr.Addr(0), addr.Addr(128), addr.Addr(256)
	c.Fill(a0, 0, 0, true) // prefetch, never touched
	c.Fill(a1, 1, 1, false)
	ev := c.Fill(a2, 2, 2, false)
	if !ev.Valid || !ev.WasPrefetched {
		t.Errorf("eviction = %+v, want unused prefetch", ev)
	}
	if c.Stats().UnusedPrefetchEvicted != 1 {
		t.Errorf("UnusedPrefetchEvicted = %d", c.Stats().UnusedPrefetchEvicted)
	}
}

func TestVictimFor(t *testing.T) {
	g := tinyGeom()
	c := New("tiny", g)
	a0, a1, a2 := addr.Addr(0), addr.Addr(128), addr.Addr(256)
	if _, ok := c.VictimFor(a2); ok {
		t.Error("empty set should have no victim")
	}
	c.Fill(a0, 0, 0, false)
	if _, ok := c.VictimFor(a2); ok {
		t.Error("half-empty set should have no victim")
	}
	c.Fill(a1, 1, 1, false)
	v, ok := c.VictimFor(a2)
	if !ok || v.Tag != g.Tag(a0) {
		t.Errorf("victim = %+v ok=%v, want a0's line", v, ok)
	}
	// Fill of an already-present block has no victim.
	if _, ok := c.VictimFor(a0); ok {
		t.Error("present block should have no victim")
	}
}

func TestResetAndString(t *testing.T) {
	c := New("L1D", l1geom())
	want := "L1D: 32KB 1-way 32B blocks (1024 sets)"
	if c.String() != want {
		t.Errorf("String = %q, want %q", c.String(), want)
	}
}

// validLines counts c's valid lines.
func validLines(c *Cache) int {
	n := 0
	for _, ln := range c.lines {
		if ln.Valid {
			n++
		}
	}
	return n
}

func TestOccupancyNeverExceedsCapacityProperty(t *testing.T) {
	g := tinyGeom()
	f := func(raw []uint16) bool {
		c := New("p", g)
		now := int64(0)
		for _, r := range raw {
			a := addr.Addr(r) * 32
			now++
			if res := c.Access(a, r%3 == 0, now); !res.Hit {
				c.Fill(a, now, now, r%5 == 0)
			}
			if validLines(c) > g.Sets()*g.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFillThenProbeProperty(t *testing.T) {
	// Any block just filled must be present, and stats must balance:
	// hits + misses == accesses.
	g := l2geom()
	f := func(raw []uint32) bool {
		c := New("p", g)
		now := int64(0)
		for _, r := range raw {
			a := addr.Addr(r)
			now++
			if res := c.Access(a, false, now); !res.Hit {
				c.Fill(a, now, now, false)
			}
			if !c.Probe(a) {
				return false
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New("L1D", l1geom())
	// Two addresses 32KB apart share the set but differ in tag: classic conflict.
	a, b := addr.Addr(0x0040), addr.Addr(0x0040+32*1024)
	c.Fill(a, 0, 0, false)
	ev := c.Fill(b, 1, 1, false)
	if !ev.Valid || ev.Addr != a {
		t.Errorf("eviction = %+v, want %#x", ev, a)
	}
	if c.Probe(a) {
		t.Error("conflict victim still present")
	}
}

// refModel is a trivially correct reference cache for model-based testing:
// per set, an ordered slice of (tag, dirty), most-recently-used last.
type refModel struct {
	geom addr.Geometry
	sets [][]refLine
}

type refLine struct {
	tag   uint64
	dirty bool
}

func newRefModel(g addr.Geometry) *refModel {
	return &refModel{geom: g, sets: make([][]refLine, g.Sets())}
}

func (m *refModel) access(a addr.Addr, write bool) bool {
	set := m.sets[m.geom.Index(a)]
	tag := m.geom.Tag(a)
	for i := range set {
		if set[i].tag == tag {
			ln := set[i]
			if write {
				ln.dirty = true
			}
			set = append(append(set[:i], set[i+1:]...), ln) // move to MRU
			m.sets[m.geom.Index(a)] = set
			return true
		}
	}
	return false
}

func (m *refModel) fill(a addr.Addr) (evicted uint64, wasDirty, any bool) {
	idx := m.geom.Index(a)
	set := m.sets[idx]
	tag := m.geom.Tag(a)
	for i := range set {
		if set[i].tag == tag {
			return 0, false, false // merge
		}
	}
	if len(set) == m.geom.Ways() {
		victim := set[0] // LRU first
		set = set[1:]
		m.sets[idx] = append(set, refLine{tag: tag})
		return victim.tag, victim.dirty, true
	}
	m.sets[idx] = append(set, refLine{tag: tag})
	return 0, false, false
}

func TestCacheAgainstReferenceModel(t *testing.T) {
	// Model-based property test: drive the real cache and the reference
	// LRU model with the same access/fill stream and require identical
	// hit/miss and eviction behaviour.
	g := addr.MustGeometry(1024, 4, 32) // 8 sets x 4 ways
	c := New("sut", g)
	m := newRefModel(g)
	f := func(ops []uint16) bool {
		for i, op := range ops {
			a := addr.Addr(op%512) * 32 // 512 blocks over 8 sets: heavy conflict
			write := op%3 == 0
			now := int64(i)
			got := c.Access(a, write, now)
			want := m.access(a, write)
			if got.Hit != want {
				t.Logf("op %d addr %#x: hit=%v want %v", i, a, got.Hit, want)
				return false
			}
			if !got.Hit {
				ev := c.Fill(a, now, now, false)
				wtag, wdirty, wany := m.fill(a)
				if ev.Valid != wany {
					t.Logf("op %d addr %#x: evicted=%v want %v", i, a, ev.Valid, wany)
					return false
				}
				if wany && (g.Tag(ev.Addr) != wtag || ev.Dirty != wdirty) {
					t.Logf("op %d addr %#x: victim (%d,%v) want (%d,%v)",
						i, a, g.Tag(ev.Addr), ev.Dirty, wtag, wdirty)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStatsFieldsCoverEveryCounter: Fields is the one counter list that
// checkpoints and Sub walk, so it must name every Stats field exactly once.
func TestStatsFieldsCoverEveryCounter(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	seen := map[uint64]bool{}
	for _, f := range s.Fields() {
		seen[*f] = true
	}
	if len(seen) != v.NumField() || len(s.Fields()) != v.NumField() {
		t.Errorf("Fields walks %d counters (%d distinct), Stats has %d", len(s.Fields()), len(seen), v.NumField())
	}
	if d := s.Sub(s); d != (Stats{}) {
		t.Errorf("s.Sub(s) = %+v, want zero", d)
	}
}
