package critical

import "testing"

func TestColdStartDefaultsCritical(t *testing.T) {
	p := New(8)
	if !p.Critical(0x400100) {
		t.Error("untrained predictor must not filter")
	}
}

func TestLearnsCriticalPC(t *testing.T) {
	p := New(8)
	// Saturate the cold-start window with a non-critical PC.
	for i := 0; i < 64; i++ {
		p.Train(0x400200, false)
	}
	for i := 0; i < 4; i++ {
		p.Train(0x400100, true)
	}
	if !p.Critical(0x400100) {
		t.Error("critical PC not learned")
	}
	if p.Critical(0x400200) {
		t.Error("non-critical PC predicted critical after training")
	}
}

func TestHysteresis(t *testing.T) {
	p := New(8)
	for i := 0; i < 64; i++ {
		p.Train(0x100, true)
	}
	// One contrary observation must not flip a saturated counter.
	p.Train(0x100, false)
	if !p.Critical(0x100) {
		t.Error("single non-critical retire flipped a saturated counter")
	}
	for i := 0; i < 3; i++ {
		p.Train(0x100, false)
	}
	if p.Critical(0x100) {
		t.Error("counter failed to decay")
	}
}

func TestStatsAndReset(t *testing.T) {
	p := New(4)
	p.Train(0x100, true)
	p.Train(0x100, false)
	s := p.Stats()
	if s.Trainings != 2 || s.Critical != 1 {
		t.Errorf("stats = %+v", s)
	}
	if p.StorageBits() != 16*2 {
		t.Errorf("storage = %d", p.StorageBits())
	}
}

func TestAliasing(t *testing.T) {
	p := New(2) // 4 counters: PCs 0x100 and 0x110 collide iff (pc>>2)&3 equal
	a, b := uint64(0x100), uint64(0x110)
	if p.idx(a) == p.idx(b) {
		t.Skip("indices collide by construction in this table size")
	}
	for i := 0; i < 64; i++ {
		p.Train(a, true)
		p.Train(b, false)
	}
	if !p.Critical(a) || p.Critical(b) {
		t.Error("independent PCs interfered")
	}
}
