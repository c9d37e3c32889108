package deadblock

import (
	"testing"

	"tagprefetch/internal/addr"
)

func g() addr.Geometry { return addr.MustGeometry(32*1024, 1, 32) }

// dead reports whether block a, last touched at lastTouch, is predicted
// dead at cycle now: whether now has reached DeadAt.
func dead(p *Predictor, a addr.Addr, lastTouch, now int64) bool {
	return now >= p.DeadAt(a, lastTouch)
}

func TestDefaults(t *testing.T) {
	p := New(Config{Geom: g()})
	if p.cfg.Entries != 16384 || p.cfg.DefaultIdle != 4096 || p.cfg.SlackPct != 100 {
		t.Errorf("defaults = %+v", p.cfg)
	}
	if p.StorageBits() == 0 {
		t.Error("zero storage")
	}
}

func TestUnknownBlockUsesDefaultIdle(t *testing.T) {
	p := New(Config{Geom: g(), DefaultIdle: 100})
	a := addr.Addr(0x1000)
	if dead(p, a, 1000, 1050) {
		t.Error("dead before default idle elapsed")
	}
	if !dead(p, a, 1000, 1101) {
		t.Error("not dead after default idle elapsed")
	}
}

func TestLearnedLiveTimeDrivesPrediction(t *testing.T) {
	p := New(Config{Geom: g(), DefaultIdle: 1000000})
	a := addr.Addr(0x2000)
	// Block lived 200 cycles (filled 0, last touch 200).
	p.OnEvict(a, 0, 200)
	// Idle 150 < live 200: alive.
	if dead(p, a, 1000, 1150) {
		t.Error("predicted dead while idle < live time")
	}
	// Idle 250 > live 200: dead.
	if !dead(p, a, 1000, 1251) {
		t.Error("not predicted dead after idle > live time")
	}
}

func TestSlackScalesThreshold(t *testing.T) {
	p := New(Config{Geom: g(), SlackPct: 200})
	a := addr.Addr(0x3000)
	p.OnEvict(a, 0, 100) // live 100, threshold 200
	if dead(p, a, 0, 150) {
		t.Error("dead below slack-scaled threshold")
	}
	if !dead(p, a, 0, 201) {
		t.Error("alive above slack-scaled threshold")
	}
}

func TestNegativeTimesClamped(t *testing.T) {
	p := New(Config{Geom: g()})
	a := addr.Addr(0x4000)
	p.OnEvict(a, 500, 100) // lastTouch < fillAt: live time clamps to 0
	if !dead(p, a, 0, 1) {
		t.Error("zero live time should predict dead after any idle")
	}
	if dead(p, a, 100, 50) { // now < lastTouch: never dead
		t.Error("negative idle predicted dead")
	}
}

func TestTableBounded(t *testing.T) {
	p := New(Config{Geom: g(), Entries: 4})
	for i := 0; i < 100; i++ {
		p.OnEvict(addr.Addr(i*32), 0, int64(i))
	}
	if len(p.live) > 4 {
		t.Errorf("table grew to %d entries, cap 4", len(p.live))
	}
}

func TestBlockGranularity(t *testing.T) {
	p := New(Config{Geom: g(), DefaultIdle: 1 << 40})
	p.OnEvict(0x5000, 0, 300)
	// Another address in the same 32B block shares the entry.
	if dead(p, 0x5008, 0, 250) {
		t.Error("same-block address not sharing live time (dead too early)")
	}
	if !dead(p, 0x5008, 0, 301) {
		t.Error("same-block address not sharing live time (never dead)")
	}
}

func TestDeadAt(t *testing.T) {
	p := New(Config{Geom: g(), DefaultIdle: 500})
	a := addr.Addr(0x7000)
	// Unknown block: death at lastTouch + DefaultIdle + 1.
	if got := p.DeadAt(a, 1000); got != 1501 {
		t.Errorf("DeadAt unknown = %d, want 1501", got)
	}
	p.OnEvict(a, 0, 200) // live 200
	if got := p.DeadAt(a, 1000); got != 1201 {
		t.Errorf("DeadAt known = %d, want 1201", got)
	}
}

func TestDeadAtSlack(t *testing.T) {
	p := New(Config{Geom: g(), SlackPct: 150})
	a := addr.Addr(0x8000)
	p.OnEvict(a, 0, 100) // live 100, threshold 150
	if got := p.DeadAt(a, 0); got != 151 {
		t.Errorf("DeadAt = %d, want 151", got)
	}
}
