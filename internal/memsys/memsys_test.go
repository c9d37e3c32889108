package memsys

import (
	"reflect"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/core"
	"tagprefetch/internal/deadblock"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
)

func newSys(pf prefetch.Prefetcher) *MemSys { return New(Config{}, pf) }

func TestDefaultConfigMatchesTable1(t *testing.T) {
	c := DefaultConfig()
	if c.L1D.SizeBytes() != 32*1024 || c.L1D.Ways() != 1 || c.L1D.BlockBytes() != 32 {
		t.Errorf("L1D = %+v", c.L1D)
	}
	if c.L2.SizeBytes() != 1<<20 || c.L2.Ways() != 4 || c.L2.BlockBytes() != 64 {
		t.Errorf("L2 = %+v", c.L2)
	}
	if c.L2Latency != 12 || c.MemLatency != 70 || c.L1L2BusBytes != 32 || c.MSHRs != 64 {
		t.Errorf("latencies = %+v", c)
	}
}

func TestL1HitFast(t *testing.T) {
	m := newSys(nil)
	a := addr.Addr(0x1000)
	first := m.Access(a, 0x400000, false, 0)
	if first <= 0 {
		t.Fatalf("first access ready at %d", first)
	}
	// Second access after the fill settled: L1 hit at the hit latency.
	second := m.Access(a, 0x400000, false, first+10)
	if second != first+10+DefaultConfig().L1HitLatency {
		t.Errorf("hit latency = %d cycles", second-(first+10))
	}
	s := m.Stats()
	if s.L1Hits != 1 || s.L1Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestColdMissPaysMemoryLatency(t *testing.T) {
	m := newSys(nil)
	done := m.Access(0x1000, 0, false, 0)
	// 1 (detect) + bus + 12 (L2 lookup, miss) + 70 (memory) + transfers.
	if done < 83 {
		t.Errorf("cold miss latency = %d, want >= 83", done)
	}
	if done > 120 {
		t.Errorf("cold miss latency = %d, implausibly high", done)
	}
	s := m.Stats()
	if s.L2Demand != 1 || s.L2Misses != 1 || s.NonPrefetchedOriginal != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestL2HitFasterThanMemory(t *testing.T) {
	m := newSys(nil)
	a := addr.Addr(0x1000)
	done := m.Access(a, 0, false, 0)
	// Evict a from L1 via a conflicting block (32KB apart), then re-access:
	// should hit in L2.
	m.Access(a+32*1024, 0, false, done+100)
	t0 := done + 10000
	redone := m.Access(a, 0, false, t0)
	lat := redone - t0
	if lat < 13 || lat > 30 {
		t.Errorf("L2 hit latency = %d, want ~14-16", lat)
	}
	s := m.Stats()
	if s.L2Hits != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestIdealL2NeverGoesToMemory(t *testing.T) {
	m := New(Config{IdealL2: true}, nil)
	var last int64
	for i := 0; i < 100; i++ {
		a := addr.Addr(i * 64 * 1024) // all conflict in L1, distinct tags
		last = m.Access(a, 0, false, last+200)
	}
	s := m.Stats()
	if s.L2Misses != 0 {
		t.Errorf("ideal L2 recorded %d misses", s.L2Misses)
	}
	if s.L2Hits != s.L2Demand {
		t.Errorf("stats = %+v", s)
	}
}

func TestInFlightMissMerges(t *testing.T) {
	// A second access to a block whose fill is in flight must not re-access
	// the L2: it completes when the first fill lands (the line is allocated
	// at miss time with a future ReadyAt, so the merge appears as an L1
	// late hit).
	m := newSys(nil)
	a := addr.Addr(0x2000)
	r1 := m.Access(a, 0, false, 0)
	r2 := m.Access(a+8, 0, false, 1)
	if r2 != r1 {
		t.Errorf("merged access ready at %d, want %d", r2, r1)
	}
	if m.Stats().L2Demand != 1 {
		t.Errorf("merged miss re-accessed L2: %+v", m.Stats())
	}
	if m.L1Stats().LateHits != 1 {
		t.Errorf("late hits = %d, want 1", m.L1Stats().LateHits)
	}
}

func TestMSHRFullStalls(t *testing.T) {
	m := New(Config{MSHRs: 2}, nil)
	// Three distinct-block misses at the same cycle: the third must stall.
	r1 := m.Access(0x00000, 0, false, 0)
	m.Access(0x10000, 0, false, 0)
	r3 := m.Access(0x20000, 0, false, 0)
	if r3 <= r1 {
		t.Errorf("third miss (%d) did not stall behind first (%d)", r3, r1)
	}
	if m.Stats().MSHRStalls != 1 {
		t.Errorf("stalls = %d", m.Stats().MSHRStalls)
	}
}

// smallL2Config shrinks the L2 so cyclic per-set tag patterns actually miss
// in L2 (with the default 1 MB L2 the whole test pattern stays resident and
// prefetches are correctly dropped as already-present).
func smallL2Config() Config {
	c := Config{L2: addr.MustGeometry(32*1024, 4, 64)}
	return c
}

// sixTagCycle drives the per-set cycle 1..6 at L1 set 9 for `passes`
// passes, spaced by `gap` cycles, returning the final time.
func sixTagCycle(m *MemSys, g addr.Geometry, passes int, gap int64) int64 {
	now := int64(0)
	for p := 0; p < passes; p++ {
		for tag := uint64(1); tag <= 6; tag++ {
			now += gap
			m.Access(g.Compose(tag, 9), 0x400100, false, now)
		}
	}
	return now
}

func TestPrefetchFillsL2NotL1(t *testing.T) {
	g := DefaultConfig().L1D
	tcp := core.New(core.TCP8K(g))
	m := New(smallL2Config(), tcp)
	sixTagCycle(m, g, 3, 500)
	s := m.Stats()
	if s.PrefetchIssued == 0 {
		t.Fatalf("no prefetch issued: %+v", s)
	}
	if s.PrefetchFills == 0 {
		t.Fatalf("no prefetch fills: %+v", s)
	}
	if s.PrefetchToL1Fills != 0 {
		t.Errorf("base TCP filled L1: %+v", s)
	}
}

func TestPrefetchedOriginalAccounting(t *testing.T) {
	g := DefaultConfig().L1D
	tcp := core.New(core.TCP8K(g))
	m := New(smallL2Config(), tcp)
	// Drive the cyclic pattern long enough that predictions land ahead of
	// demand, then check Figure 12 categories.
	sixTagCycle(m, g, 20, 500)
	m.Finish()
	s := m.Stats()
	if s.PrefetchedOriginal == 0 {
		t.Errorf("no prefetched-original accesses: %+v", s)
	}
	if s.PrefetchedOriginal+s.NonPrefetchedOriginal != s.L2Demand {
		t.Errorf("categories don't sum: %+v", s)
	}
}

func TestUselessPrefetchCountsExtra(t *testing.T) {
	g := DefaultConfig().L1D
	tcp := core.New(core.TCP8K(g))
	m := New(smallL2Config(), tcp)
	// One full 6-tag pass (which also evicts the early tags from the tiny
	// L2), then re-see (1,2): TCP prefetches tag 3, and the pattern never
	// continues, so the prefetch is never used.
	now := sixTagCycle(m, g, 1, 500)
	for _, tag := range []uint64{1, 2} {
		now += 500
		m.Access(g.Compose(tag, 9), 0x400100, false, now)
	}
	m.Finish()
	s := m.Stats()
	if s.PrefetchIssued == 0 {
		t.Fatalf("no prefetch issued: %+v", s)
	}
	if s.PrefetchedExtra == 0 {
		t.Errorf("useless prefetch not counted extra: %+v", s)
	}
}

func TestPrefetchAlreadyResidentDropped(t *testing.T) {
	g := DefaultConfig().L1D
	next := prefetch.NewNextLine(g, 1)
	m := newSys(next)
	now := int64(0)
	// Sequential misses: each miss prefetches the next block, which the
	// next miss then finds in L2; its own prefetch of block+1 proceeds.
	for i := 0; i < 50; i++ {
		now += 500
		m.Access(addr.Addr(i*32), 0, false, now)
	}
	s := m.Stats()
	if s.PrefetchedOriginal == 0 {
		t.Errorf("next-line never useful on a sequential stream: %+v", s)
	}
}

func TestHybridPromotionRequiresDeadVictim(t *testing.T) {
	g := DefaultConfig().L1D
	cfg := core.TCP8K(g)
	cfg.PrefetchToL1 = true
	tcp := core.New(cfg)
	mcfg := smallL2Config()
	mcfg.PrefetchBus = true
	m := New(mcfg, tcp)
	dbp := deadblock.New(deadblock.Config{Geom: g, DefaultIdle: 100})
	m.UseDeadBlockPredictor(dbp)

	sixTagCycle(m, g, 10, 5000) // long gaps: victims go dead
	s := m.Stats()
	if s.PrefetchToL1Fills == 0 {
		t.Errorf("hybrid never promoted into L1: %+v", s)
	}
}

func TestHybridWithoutPredictorRejects(t *testing.T) {
	g := DefaultConfig().L1D
	cfg := core.TCP8K(g)
	cfg.PrefetchToL1 = true
	tcp := core.New(cfg)
	m := New(smallL2Config(), tcp) // no dead-block predictor attached
	sixTagCycle(m, g, 10, 5000)
	s := m.Stats()
	if s.PrefetchToL1Fills != 0 {
		t.Errorf("promotion happened without a dead-block predictor: %+v", s)
	}
	if s.PrefetchL1Rejected == 0 {
		t.Errorf("no rejections recorded: %+v", s)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	m := newSys(nil)
	a := addr.Addr(0x3000)
	done := m.Access(a, 0, true, 0) // store: dirty
	// Conflict evicts the dirty line.
	m.Access(a+32*1024, 0, false, done+100)
	if m.L1Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", m.L1Stats().Writebacks)
	}
	// The written-back block stays in L2.
	if !m.L2().Probe(m.Config().L2.Block(a)) {
		t.Error("write-back target absent from L2")
	}
}

func TestMaxPerMissCap(t *testing.T) {
	g := DefaultConfig().L1D
	m := New(Config{MaxPerMiss: 2}, prefetch.NewNextLine(g, 8))
	m.Access(0x1000, 0, false, 0)
	s := m.Stats()
	if s.PrefetchIssued > 2 {
		t.Errorf("issued %d prefetches, cap 2", s.PrefetchIssued)
	}
}

func TestTraceMissGeometry(t *testing.T) {
	// Sanity: memsys and TCP agree on the miss geometry.
	g := DefaultConfig().L1D
	mm := trace.MakeMiss(g, g.Compose(7, 13), 0, 0, false)
	if mm.Tag != 7 || mm.Index != 13 {
		t.Errorf("miss = %+v", mm)
	}
}

func TestBusContentionDelaysBackToBackMisses(t *testing.T) {
	// Two simultaneous misses to different blocks must serialise on the
	// shared memory bus: the second completes later.
	m := newSys(nil)
	r1 := m.Access(0x00000, 0, false, 0)
	r2 := m.Access(0x40000, 0, false, 0)
	if r2 <= r1 {
		t.Errorf("no serialisation: r1=%d r2=%d", r1, r2)
	}
	l1b, memb := m.BusStats(r2)
	if l1b.Transfers == 0 || memb.Transfers == 0 {
		t.Errorf("bus stats = %+v / %+v", l1b, memb)
	}
}

func TestVirtualMissTrainsOnPromotedHit(t *testing.T) {
	// When a promoted (prefetched) L1 line takes its first demand hit, the
	// prefetcher must see a virtual miss so its per-set history stays
	// intact. Observable: the prefetcher keeps chaining predictions while
	// demand keeps hitting.
	g := DefaultConfig().L1D
	cfg := core.TCP8K(g)
	cfg.PrefetchToL1 = true
	tcp := core.New(cfg)
	mcfg := smallL2Config()
	mcfg.PrefetchBus = true
	m := New(mcfg, tcp)
	m.UseDeadBlockPredictor(deadblock.New(deadblock.Config{Geom: g, DefaultIdle: 50}))
	sixTagCycle(m, g, 30, 5000)
	s := m.Stats()
	if s.PrefetchToL1Fills == 0 {
		t.Skip("no promotions at this scale; gating too strict for the pattern")
	}
	// With virtual-miss training, TCP's observed misses exceed the raw L1
	// demand misses (hits on promoted lines are re-fed).
	if tcp.Stats().Misses <= s.L1Misses/2 {
		t.Errorf("tcp misses %d vs L1 misses %d: training starved",
			tcp.Stats().Misses, s.L1Misses)
	}
}

// toL1Stub always requests one same-set block for L1 promotion.
type toL1Stub struct {
	prefetch.None
	g addr.Geometry
}

func (s toL1Stub) Name() string { return "tol1stub" }
func (s toL1Stub) OnMiss(m trace.Miss) []prefetch.Request {
	return []prefetch.Request{{Addr: s.g.Compose(m.Tag+7, m.Index), ToL1: true}}
}

func TestPromotionGateRejectsUnknownLiveVictims(t *testing.T) {
	g := DefaultConfig().L1D
	mcfg := smallL2Config()
	mcfg.PrefetchBus = true
	m := New(mcfg, toL1Stub{g: g})
	// With no learned live time, a victim's death time comes from the huge
	// default idle threshold: promotion over the fresh resident line must
	// be rejected.
	m.UseDeadBlockPredictor(deadblock.New(deadblock.Config{Geom: g, DefaultIdle: 1 << 40}))
	m.Access(g.Compose(1, 9), 0x400100, false, 0)    // fills set 9
	m.Access(g.Compose(1, 9), 0x400100, false, 5000) // settled hit -> stub idle
	m.Access(g.Compose(2, 9), 0x400100, false, 9000) // miss -> stub requests promotion
	s := m.Stats()
	if s.PrefetchToL1Fills != 0 {
		t.Errorf("promotions happened despite unknown live victims: %+v", s)
	}
	if s.PrefetchL1Rejected == 0 {
		t.Errorf("no rejections recorded: %+v", s)
	}
}

func TestPromotionAllowedOnceVictimLifetimeLearned(t *testing.T) {
	// Once the dead-block predictor has seen a victim's generation die
	// quickly, promotions into its frame proceed.
	g := DefaultConfig().L1D
	mcfg := smallL2Config()
	mcfg.PrefetchBus = true
	m := New(mcfg, toL1Stub{g: g})
	m.UseDeadBlockPredictor(deadblock.New(deadblock.Config{Geom: g, DefaultIdle: 1 << 40}))
	now := int64(0)
	// Cycle several distinct tags through set 9: each eviction teaches the
	// predictor a ~zero live time, after which victims are promptly dead.
	for tag := uint64(1); tag <= 8; tag++ {
		now += 5000
		m.Access(g.Compose(tag, 9), 0x400100, false, now)
	}
	// Revisit the learned tags so the stub fires over known victims.
	for tag := uint64(1); tag <= 8; tag++ {
		now += 5000
		m.Access(g.Compose(tag, 9), 0x400100, false, now)
	}
	if s := m.Stats(); s.PrefetchToL1Fills == 0 {
		t.Errorf("no promotions after lifetimes learned: %+v", s)
	}
}

// recordingStub counts the training calls the hierarchy makes.
type recordingStub struct {
	prefetch.None
	misses, accesses int
}

func (s *recordingStub) Name() string { return "recording" }
func (s *recordingStub) OnMiss(trace.Miss) []prefetch.Request {
	s.misses++
	return nil
}
func (s *recordingStub) OnAccess(addr.Addr, addr.Addr, int64, bool) []prefetch.Request {
	s.accesses++
	return nil
}

// TestUsePrefetcherAfterNone pins the None elision to the prefetcher
// actually attached: a hierarchy built with the no-prefetch baseline and
// then given a real prefetcher (as the warm-fork boundary does) must train
// it on every miss and access.
func TestUsePrefetcherAfterNone(t *testing.T) {
	m := New(Config{}, prefetch.None{})
	stub := &recordingStub{}
	m.UsePrefetcher(stub)
	g := m.Config().L1D
	// One more tag than the set has ways: every access misses once.
	for tag := uint64(1); tag <= uint64(g.Ways())+1; tag++ {
		m.Access(g.Compose(tag, 3), 0x400000, false, int64(tag)*1000)
	}
	if want := g.Ways() + 1; stub.misses != want || stub.accesses != want {
		t.Errorf("stub saw %d misses, %d accesses; want %d, %d",
			stub.misses, stub.accesses, want, want)
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
