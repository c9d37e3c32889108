// Package deadblock implements the timekeeping dead-block predictor of Hu,
// Kaxiras and Martonosi (ISCA 2002), which the paper's Hybrid-8K scheme
// uses to decide when a prefetched block may be promoted into the L1
// (Section 5.2.2: "the predicted data is prefetched into L2 immediately,
// but will update L1 only after the corresponding cache line is predicted
// dead").
//
// The timekeeping insight is that a block's live time (fill to last touch)
// is highly repetitive across generations. The predictor remembers each
// block's most recent live time; a resident block is predicted dead once
// its idle time (now minus last touch) exceeds its remembered live time —
// or, for blocks never seen to die, a configurable default idle threshold.
package deadblock

import "tagprefetch/internal/addr"

// Config parameterises the predictor.
type Config struct {
	// Geometry of the cache whose blocks are predicted (block granularity).
	Geom addr.Geometry
	// Entries bounds the live-time table (default 16384).
	Entries int
	// DefaultIdle is the idle-cycle threshold used for blocks with no
	// recorded live time (default 4096 cycles).
	DefaultIdle int64
	// Slack multiplies the remembered live time before a block is declared
	// dead, in percent (default 100 = exactly the previous live time).
	SlackPct int64
}

func (c Config) withDefaults() Config {
	if c.Entries <= 0 {
		c.Entries = 16384
	}
	if c.DefaultIdle <= 0 {
		c.DefaultIdle = 4096
	}
	if c.SlackPct <= 0 {
		c.SlackPct = 100
	}
	return c
}

// Predictor is the timekeeping dead-block predictor. Construct with New.
type Predictor struct {
	cfg  Config           // configuration supplied at construction; bounds the decoded ring
	live map[uint64]int64 // blockID -> last observed live time (cycles)
	// ring holds the map's keys in insertion order; when the table is
	// full the oldest insertion is replaced. Replacement must be
	// deterministic (simulation results are pinned byte-for-byte across
	// runs), which rules out dropping an arbitrary map key.
	ring     []uint64
	ringHead int
}

// New creates a predictor from cfg (zero fields take defaults).
func New(cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	return &Predictor{cfg: cfg, live: make(map[uint64]int64, cfg.Entries),
		ring: make([]uint64, 0, cfg.Entries)}
}

// OnEvict records a completed lifetime: block a was filled at fillAt and
// last touched at lastTouch before being evicted.
func (p *Predictor) OnEvict(a addr.Addr, fillAt, lastTouch int64) {
	lt := lastTouch - fillAt
	if lt < 0 {
		lt = 0
	}
	id := p.cfg.Geom.BlockID(a)
	if _, ok := p.live[id]; !ok {
		if len(p.live) >= p.cfg.Entries {
			// Bounded table: replace the oldest insertion (FIFO). Hardware
			// would use a set-associative table; what matters here is that
			// the choice is deterministic.
			delete(p.live, p.ring[p.ringHead])
			p.ring[p.ringHead] = id
			p.ringHead = (p.ringHead + 1) % p.cfg.Entries
		} else {
			p.ring = append(p.ring, id)
		}
	}
	p.live[id] = lt
}

// DeadAt returns the predicted death cycle for block a last touched at
// lastTouch: the touch time plus the (slack-scaled) remembered live time,
// or the default idle threshold for unknown blocks. The block is predicted
// dead at every cycle from DeadAt on, once its idle time exceeds that
// threshold. The hybrid prefetcher uses this to defer L1 promotion until
// the victim line is predicted dead.
func (p *Predictor) DeadAt(a addr.Addr, lastTouch int64) int64 {
	threshold := p.cfg.DefaultIdle
	if lt, ok := p.live[p.cfg.Geom.BlockID(a)]; ok {
		threshold = lt * p.cfg.SlackPct / 100
	}
	return lastTouch + threshold + 1
}

// StorageBits returns the hardware budget: per entry a block tag (~40b) and
// a live-time counter (~16b).
func (p *Predictor) StorageBits() uint64 {
	return uint64(p.cfg.Entries) * (40 + 16)
}
