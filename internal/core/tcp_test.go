package core

import (
	"testing"
	"testing/quick"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
)

func l1() addr.Geometry { return addr.MustGeometry(32*1024, 1, 32) }

// missAt builds a miss for (tag, set).
func missAt(g addr.Geometry, tag uint64, set uint32) trace.Miss {
	return trace.MakeMiss(g, g.Compose(tag, set), 0, 0, false)
}

func TestConfigDefaults(t *testing.T) {
	tcp := New(Config{L1: l1()})
	cfg := tcp.Config()
	if cfg.HistoryDepth != 2 || cfg.PHTSets != 256 || cfg.PHTWays != 8 ||
		cfg.TagBits != 16 || cfg.Targets != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestPresetStorageBudgets(t *testing.T) {
	g := l1()
	k8 := New(TCP8K(g))
	if got := k8.StorageBits() / 8; got != 8*1024 {
		t.Errorf("TCP8K PHT = %d bytes, want 8192", got)
	}
	m8 := New(TCP8M(g))
	if got := m8.StorageBits() / 8; got != 8*1024*1024 {
		t.Errorf("TCP8M PHT = %d bytes, want 8MB", got)
	}
	// THT: 1024 sets x 2 tags x 16 bits = 4KB.
	c := k8.Config()
	if got := c.L1.Sets() * c.HistoryDepth * c.TagBits / 8; got != 4*1024 {
		t.Errorf("THT = %d bytes, want 4096", got)
	}
	if k8.Name() != "tcp-8K" {
		t.Errorf("name = %q", k8.Name())
	}
	if m8.Name() != "tcp-8M" {
		t.Errorf("name = %q", m8.Name())
	}
}

func TestIndexBitsClamped(t *testing.T) {
	cfg := New(Config{L1: l1(), PHTSets: 262144, IndexBits: 99}).Config()
	if cfg.IndexBits != 10 {
		t.Errorf("IndexBits = %d, want 10 (L1 index width)", cfg.IndexBits)
	}
	cfg = New(Config{L1: l1(), IndexBits: -3}).Config()
	if cfg.IndexBits != 0 {
		t.Errorf("IndexBits = %d, want 0", cfg.IndexBits)
	}
}

func TestNonPow2PHTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{L1: l1(), PHTSets: 300})
}

// feed drives the tag sequence into one set and returns all requests.
func feed(tcp *TCP, g addr.Geometry, set uint32, tags ...uint64) []prefetch.Request {
	var last []prefetch.Request
	for _, tag := range tags {
		last = tcp.OnMiss(missAt(g, tag, set))
	}
	return last
}

func TestLearnsRepeatingSequence(t *testing.T) {
	g := l1()
	tcp := New(TCP8K(g))
	// Per-set miss tags cycle 1,2,3. After one full cycle plus re-seeing
	// (1,2), the PHT knows (1,2)->3.
	feed(tcp, g, 5, 1, 2, 3, 1)
	reqs := feed(tcp, g, 5, 2)
	if len(reqs) != 1 {
		t.Fatalf("requests = %+v, want one", reqs)
	}
	want := g.Compose(3, 5)
	if reqs[0].Addr != want {
		t.Errorf("prediction = %#x, want %#x (tag 3, same set)", reqs[0].Addr, want)
	}
	if reqs[0].ToL1 {
		t.Error("base TCP must prefetch to L2 only")
	}
	s := tcp.Stats()
	if s.Hits == 0 || s.Predictions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestNoPredictionBeforeTraining(t *testing.T) {
	g := l1()
	tcp := New(TCP8K(g))
	if reqs := feed(tcp, g, 0, 1, 2, 3, 4, 5); len(reqs) != 0 {
		t.Errorf("predicted without ever repeating a sequence: %+v", reqs)
	}
}

func TestCrossSetSharing(t *testing.T) {
	// The headline mechanism (Section 3.2): a sequence learned in one set
	// predicts in a different set, because with IndexBits=0 the PHT is
	// shared and the prediction recombines with the *current* miss index.
	g := l1()
	tcp := New(TCP8K(g))
	feed(tcp, g, 5, 1, 2, 3) // train (1,2)->3 in set 5
	reqs := feed(tcp, g, 77, 1, 2)
	if len(reqs) != 1 {
		t.Fatalf("no cross-set prediction: %+v", reqs)
	}
	want := g.Compose(3, 77) // same tag sequence, set 77's index
	if reqs[0].Addr != want {
		t.Errorf("prediction = %#x, want %#x", reqs[0].Addr, want)
	}
}

func TestPrivateIndexingBlocksSharing(t *testing.T) {
	// With the full miss index in the PHT index (TCP-8M), set 77 must NOT
	// benefit from training in set 5.
	g := l1()
	tcp := New(TCP8M(g))
	feed(tcp, g, 5, 1, 2, 3)
	if reqs := feed(tcp, g, 77, 1, 2); len(reqs) != 0 {
		t.Errorf("private indexing leaked across sets: %+v", reqs)
	}
	// But the trained set itself predicts.
	feed(tcp, g, 5, 1) // history (1,2) ... continue cycle
	if reqs := feed(tcp, g, 5, 2); len(reqs) != 1 {
		t.Errorf("trained set failed to predict: %+v", reqs)
	}
}

func TestUpdateRefreshesTarget(t *testing.T) {
	g := l1()
	tcp := New(TCP8K(g))
	feed(tcp, g, 0, 1, 2, 3) // (1,2)->3
	feed(tcp, g, 0, 1, 2, 9) // (1,2)->9 now
	reqs := feed(tcp, g, 0, 1, 2)
	if len(reqs) != 1 || reqs[0].Addr != g.Compose(9, 0) {
		t.Errorf("requests = %+v, want updated target 9", reqs)
	}
}

func TestMultiTargetKeepsMRUOrder(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.Targets = 2
	tcp := New(cfg)
	feed(tcp, g, 0, 1, 2, 3) // (1,2)->3
	feed(tcp, g, 0, 1, 2, 9) // (1,2)->9, 3 demoted
	reqs := feed(tcp, g, 0, 1, 2)
	if len(reqs) != 2 {
		t.Fatalf("requests = %+v, want 2 targets", reqs)
	}
	if reqs[0].Addr != g.Compose(9, 0) || reqs[1].Addr != g.Compose(3, 0) {
		t.Errorf("MRU order wrong: %+v", reqs)
	}
	// Storage grows with targets: tag + 2 targets = 48 bits/entry.
	if tcp.StorageBits() != uint64(256*8*48) {
		t.Errorf("storage = %d", tcp.StorageBits())
	}
}

func TestSelfPredictionSuppressed(t *testing.T) {
	g := l1()
	tcp := New(TCP8K(g))
	// Sequence (1,2) -> 2: predicting the just-missed line is dropped.
	feed(tcp, g, 0, 1, 2, 2, 1)
	reqs := feed(tcp, g, 0, 2)
	for _, r := range reqs {
		if r.Addr == g.Compose(2, 0) {
			t.Errorf("self prediction not suppressed: %+v", reqs)
		}
	}
}

func TestHybridFlagsToL1(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.PrefetchToL1 = true
	tcp := New(cfg)
	feed(tcp, g, 0, 1, 2, 3, 1)
	reqs := feed(tcp, g, 0, 2)
	if len(reqs) != 1 || !reqs[0].ToL1 {
		t.Errorf("hybrid request not flagged for L1: %+v", reqs)
	}
}

func TestHistoryDepth1(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.HistoryDepth = 1
	tcp := New(cfg)
	// k=1: single-tag history, (2)->3 learned after one occurrence.
	feed(tcp, g, 0, 2, 3)
	reqs := feed(tcp, g, 0, 2)
	if len(reqs) != 1 || reqs[0].Addr != g.Compose(3, 0) {
		t.Errorf("k=1 prediction = %+v", reqs)
	}
}

func TestXORHashAlsoLearns(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.Hash = HashXOR
	tcp := New(cfg)
	feed(tcp, g, 0, 1, 2, 3, 1)
	reqs := feed(tcp, g, 0, 2)
	if len(reqs) != 1 || reqs[0].Addr != g.Compose(3, 0) {
		t.Errorf("xor-hash prediction = %+v", reqs)
	}
}

func TestPHTConflictEviction(t *testing.T) {
	// A tiny 1-set 1-way PHT: a second pattern evicts the first.
	g := l1()
	tcp := New(Config{L1: g, PHTSets: 1, PHTWays: 1})
	feed(tcp, g, 0, 1, 2, 3) // (1,2)->3
	feed(tcp, g, 0, 7, 8, 9) // (7,8)->9 evicts
	feed(tcp, g, 0, 1)       // history (9,1)... rebuild history (1,2)
	if reqs := feed(tcp, g, 0, 2); len(reqs) != 0 {
		t.Errorf("evicted pattern still predicted: %+v", reqs)
	}
	if tcp.Stats().Allocs < 2 {
		t.Errorf("allocs = %d", tcp.Stats().Allocs)
	}
}

func TestInterfaceNoOps(t *testing.T) {
	tcp := New(TCP8K(l1()))
	tcp.OnAccess(0, 0, 0, true)
}

func TestPHTIndexWithinRangeProperty(t *testing.T) {
	for _, cfg := range []Config{TCP8K(l1()), TCP8M(l1()), {L1: l1(), PHTSets: 64, PHTWays: 2, IndexBits: 3}} {
		tcp := New(cfg)
		f := func(t1, t2, t3 uint64, set uint16) bool {
			idx := tcp.phtIndex([]uint64{t1, t2, t3}, uint32(set)%1024)
			return idx < uint64(tcp.cfg.PHTSets)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
		}
	}
}

func TestPredictionsAlwaysInMissSetProperty(t *testing.T) {
	// Every prefetch address must decompose to the miss's set index
	// (Section 4: predicted tag + current miss index).
	g := l1()
	tcp := New(TCP8K(g))
	f := func(tags []uint8, rawSet uint16) bool {
		set := uint32(rawSet) % 1024
		for _, tg := range tags {
			reqs := tcp.OnMiss(missAt(g, uint64(tg%8), set))
			for _, r := range reqs {
				if g.Index(r.Addr) != set {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := l1()
	tcp := New(TCP8K(g))
	feed(tcp, g, 0, 1, 2, 3, 1, 2, 3)
	s := tcp.Stats()
	if s.Misses != 6 {
		t.Errorf("misses = %d", s.Misses)
	}
	if s.Hits > s.Lookups {
		t.Errorf("hits %d > lookups %d", s.Hits, s.Lookups)
	}
	if s.Updates == 0 || s.Allocs == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStrideAssistPredictsArithmetically(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.StrideAssist = true
	cfg.HistoryDepth = 3 // stride confirmation needs two equal deltas
	tcp := New(cfg)
	// A strided per-set tag sequence 10, 11, 12: the row becomes
	// (10, 11, 12) after the third miss -> stride 1 -> predict 13,
	// without any PHT training.
	feed(tcp, g, 3, 10, 11)
	reqs := feed(tcp, g, 3, 12)
	found := false
	for _, r := range reqs {
		if r.Addr == g.Compose(13, 3) {
			found = true
		}
	}
	if !found {
		t.Errorf("stride assist did not predict tag 13: %+v", reqs)
	}
	if tcp.Stats().StridePredictions == 0 {
		t.Error("stride predictions not counted")
	}
}

func TestStrideAssistIgnoresNonStrided(t *testing.T) {
	g := l1()
	// k=2 histories can never confirm a stride (only one delta): the
	// assist must stay inert.
	cfg := TCP8K(g)
	cfg.StrideAssist = true
	tcp := New(cfg)
	feed(tcp, g, 3, 10, 11, 12, 13)
	if s := tcp.Stats().StridePredictions; s != 0 {
		t.Errorf("k=2 history produced %d stride predictions", s)
	}
	// k=3 with unequal deltas: still inert.
	cfg3 := TCP8K(g)
	cfg3.StrideAssist = true
	cfg3.HistoryDepth = 3
	tcp3 := New(cfg3)
	feed(tcp3, g, 4, 10, 11, 25)
	if s := tcp3.Stats().StridePredictions; s != 0 {
		t.Errorf("non-strided history produced %d stride predictions", s)
	}
}

func TestStrideAssistDescending(t *testing.T) {
	g := l1()
	cfg := TCP8K(g)
	cfg.StrideAssist = true
	cfg.HistoryDepth = 3
	tcp := New(cfg)
	feed(tcp, g, 5, 30, 27)
	reqs := feed(tcp, g, 5, 24)
	found := false
	for _, r := range reqs {
		if r.Addr == g.Compose(21, 5) {
			found = true
		}
	}
	if !found {
		t.Errorf("descending stride not predicted: %+v", reqs)
	}
}

func TestStridedNextEdgeCases(t *testing.T) {
	if _, ok := stridedNext([]uint64{5}); ok {
		t.Error("single-tag history cannot be strided")
	}
	if _, ok := stridedNext([]uint64{5, 6}); ok {
		t.Error("two tags cannot confirm a stride")
	}
	if _, ok := stridedNext([]uint64{5, 5, 5}); ok {
		t.Error("zero stride must not qualify")
	}
	if _, ok := stridedNext([]uint64{2, 1, 0}); ok {
		// next would be -1: must not underflow
		t.Error("negative successor must be rejected")
	}
	if next, ok := stridedNext([]uint64{2, 4, 6}); !ok || next != 8 {
		t.Errorf("stridedNext = %d, %v", next, ok)
	}
}

func TestIndexBitsClampedToPHTWidth(t *testing.T) {
	// A 2KB PHT (64 sets) with the full 10-bit miss index used to
	// underflow the hash width; the index bits must clamp to log2(sets).
	tcp := New(Config{L1: l1(), PHTSets: 64, PHTWays: 8, IndexBits: 10})
	if got := tcp.Config().IndexBits; got != 6 {
		t.Fatalf("IndexBits = %d, want 6", got)
	}
	// And indices must stay in range.
	for tag := uint64(0); tag < 100; tag++ {
		idx := tcp.phtIndex([]uint64{tag, tag + 1}, uint32(tag)%1024)
		if idx >= 64 {
			t.Fatalf("index %d out of range", idx)
		}
	}
}
