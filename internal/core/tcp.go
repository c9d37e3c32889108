// Package core implements the paper's primary contribution: the Tag
// Correlating Prefetcher (TCP, Section 4).
//
// TCP is a two-level structure mirroring two-level branch predictors:
//
//   - The Tag History Table (THT) is direct-mapped with one row per L1 data
//     cache set; each row remembers the last k tags that missed in that set
//     (the paper uses k = 2).
//   - The Pattern History Table (PHT) is set-associative; it is indexed by
//     the low bits of a truncated addition of the tags in the history
//     sequence, concatenated with the low n bits of the miss index
//     (Figure 9). Each entry is {tag, tag'}: tagged by the last tag of the
//     indexing sequence, storing the predicted successor tag.
//
// On an L1 miss with (miss index, miss tag), TCP first uses the *old* THT
// sequence to update the PHT entry for that sequence with the observed
// successor (the miss tag), then shifts the miss tag into the THT row, and
// finally looks up the *new* sequence in the PHT; a hit predicts the next
// tag, which recombined with the same miss index forms the prefetch block
// address issued to the L2 (Section 4, update/lookup).
//
// With n = 0 every cache set shares the PHT (TCP-8K); with n = 10 (the full
// miss index of a 1024-set L1) every set has private pattern space
// (TCP-8M). The sharing trade-off is the subject of Figures 11-13.
package core

import (
	"fmt"
	"math"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
)

// HashKind selects the PHT index hash over the tag sequence.
type HashKind uint8

const (
	// HashTruncAdd is the paper's truncated addition of all tags (Figure 9,
	// crediting the same scheme in DBCP [12]).
	HashTruncAdd HashKind = iota
	// HashXOR folds the tags with shifts and XORs — the gshare-style
	// alternative explored by the A3 ablation.
	HashXOR
)

// Config parameterises a TCP instance.
type Config struct {
	// L1 is the geometry whose miss stream TCP observes (index/tag space).
	L1 addr.Geometry
	// HistoryDepth is k, the tags remembered per THT row (paper: 2).
	HistoryDepth int
	// PHTSets and PHTWays size the pattern history table (paper: 8-way).
	PHTSets int
	PHTWays int
	// IndexBits is n, the number of low miss-index bits mixed into the PHT
	// index: 0 = fully shared, L1.IndexBits() = fully private (Figure 9).
	IndexBits int
	// TagBits is the width of stored tags for matching and storage
	// accounting (default 16, giving the paper's 4-byte {tag, tag'} entry).
	TagBits int
	// Targets is the number of successor tags per entry (at most 255),
	// MRU first.
	// 1 reproduces the paper; >1 implements the Section 6 multi-target
	// extension in the style of Markov prefetchers.
	Targets int
	// Hash selects the PHT index hash (default HashTruncAdd).
	Hash HashKind
	// StrideAssist enables the Section 6 extension for strided tag
	// sequences: when a set's tag history exhibits a constant non-zero
	// stride, the next tag is also predicted arithmetically, without
	// consuming PHT space. The paper measures such sequences in Figure 15
	// and proposes exploiting them as future work.
	StrideAssist bool
	// PrefetchToL1 marks requests for L1 promotion (used by the hybrid
	// scheme together with a dead-block predictor; Section 5.2.2).
	PrefetchToL1 bool
}

func (c Config) withDefaults() Config {
	if c.HistoryDepth <= 0 {
		c.HistoryDepth = 2
	}
	if c.PHTSets <= 0 {
		c.PHTSets = 256
	}
	if c.PHTWays <= 0 {
		c.PHTWays = 8
	}
	if c.TagBits <= 0 || c.TagBits > 32 {
		c.TagBits = 16
	}
	if c.Targets <= 0 {
		c.Targets = 1
	}
	c.Targets = min(c.Targets, math.MaxUint8) // the most a prefetch.Table way keeps
	if c.IndexBits < 0 {
		c.IndexBits = 0
	}
	if max := int(c.L1.IndexBits()); c.IndexBits > max {
		c.IndexBits = max
	}
	// The miss-index bits cannot exceed the PHT's own index width: a PHT
	// with 2^s sets sliced by n >= s index bits would leave no room for
	// the tag-sequence hash at all.
	if max := int(log2u(c.PHTSets)); c.IndexBits > max {
		c.IndexBits = max
	}
	return c
}

// TCP8K returns the paper's realistic design point: an 8 KB PHT with 256
// sets, 8 ways, and no miss-index bits (all cache sets share patterns).
func TCP8K(l1 addr.Geometry) Config {
	return Config{L1: l1, HistoryDepth: 2, PHTSets: 256, PHTWays: 8, IndexBits: 0}
}

// TCP8M returns the paper's idealised no-sharing point: an 8 MB PHT with
// 262144 sets, 8 ways, indexed with the full miss index.
func TCP8M(l1 addr.Geometry) Config {
	return Config{L1: l1, HistoryDepth: 2, PHTSets: 262144, PHTWays: 8,
		IndexBits: int(l1.IndexBits())}
}

// TCP is the tag correlating prefetcher. Construct with New.
type TCP struct {
	cfg     Config
	tagMask uint64 // geometry derived from cfg at construction; bounds a decoded tag
	setMask uint64 // geometry derived from cfg at construction
	idxMask uint32 // geometry derived from cfg at construction
	hiBits  uint   // geometry derived from cfg at construction

	tht     []uint64 // L1 sets x k tag history, row-major, oldest first
	thtFill []int    // valid tags per row

	pht   prefetch.Table[uint32] // keyed by the sequence's last tag under tagMask; targets are successor tags
	clock int64

	// reqs is the scratch buffer OnMiss returns; per the Prefetcher
	// contract the slice is only valid until the next call, so reusing the
	// backing array keeps the per-miss path allocation-free.
	reqs []prefetch.Request

	st  Stats             // predictor counters, single-writer
	pub telemetry.Mirror  // host-side registry mirror of st, republished after a decode
	tr  *telemetry.Tracer // host-side observability wiring, outside the simulated state
}

// Stats holds the predictor counters.
type Stats struct {
	Misses      uint64 // L1 misses observed
	Lookups     uint64 // PHT lookups with a full history
	Hits        uint64 // PHT lookups that matched an entry
	Predictions uint64 // prefetch requests produced by the PHT
	Updates     uint64 // PHT entries trained
	Allocs      uint64 // PHT entries newly allocated
	Evictions   uint64 // valid PHT entries displaced by allocation

	StridePredictions uint64 // requests produced by the stride assist (§6)
}

// fields lists the counters in checkpoint order.
func (s *Stats) fields() [8]*uint64 {
	return [...]*uint64{&s.Misses, &s.Lookups, &s.Hits, &s.Predictions,
		&s.Updates, &s.Allocs, &s.Evictions, &s.StridePredictions}
}

// New creates a TCP from cfg (zero fields take the paper's defaults).
func New(cfg Config) *TCP {
	cfg = cfg.withDefaults()
	if cfg.PHTSets&(cfg.PHTSets-1) != 0 {
		panic(fmt.Sprintf("core: PHT sets %d not a power of two", cfg.PHTSets))
	}
	t := &TCP{
		cfg:     cfg,
		tagMask: (1 << uint(cfg.TagBits)) - 1,
		setMask: uint64(cfg.PHTSets - 1),
		idxMask: uint32(1<<uint(cfg.IndexBits)) - 1,
	}
	t.hiBits = log2u(cfg.PHTSets) - uint(cfg.IndexBits)
	t.tht = make([]uint64, cfg.L1.Sets()*cfg.HistoryDepth)
	t.thtFill = make([]int, cfg.L1.Sets())
	t.pht = prefetch.NewTable(cfg.PHTSets, cfg.PHTWays, cfg.Targets, uint32(t.tagMask))
	t.tr = telemetry.Nop()
	return t
}

// AttachTelemetry implements telemetry.Component: predictor counters are
// registered into reg as mirrors refreshed by PublishCounters, and PHT
// evictions are traced through tr.
func (t *TCP) AttachTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	s, p := &t.st, &t.pub
	p.Bind(reg, &s.Misses, telemetry.NewCounter("misses", "L1 misses observed"))
	p.Bind(reg, &s.Lookups, telemetry.NewCounter("pht.lookups", "PHT lookups with a full history"))
	p.Bind(reg, &s.Hits, telemetry.NewCounter("pht.hits", "PHT lookups that matched an entry"))
	p.Bind(reg, &s.Predictions, telemetry.NewCounter("predictions", "prefetch requests produced by the PHT"))
	p.Bind(reg, &s.Updates, telemetry.NewCounter("pht.updates", "PHT entries trained"))
	p.Bind(reg, &s.Allocs, telemetry.NewCounter("pht.allocs", "PHT entries newly allocated"))
	p.Bind(reg, &s.Evictions, telemetry.NewCounter("pht.evictions", "valid PHT entries displaced by allocation"))
	p.Bind(reg, &s.StridePredictions, telemetry.NewCounter("stride_predictions", "requests produced by the stride assist"))
	if tr != nil {
		t.tr = tr
	}
}

// PublishCounters stores the counters into the registry mirrors bound by
// AttachTelemetry.
func (t *TCP) PublishCounters() { t.pub.Publish() }

func log2u(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Name implements prefetch.Prefetcher.
func (t *TCP) Name() string {
	return fmt.Sprintf("tcp-%s", formatSize(t.StorageBits()/8))
}

func formatSize(b uint64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// Config returns the effective configuration (defaults applied).
func (t *TCP) Config() Config { return t.cfg }

// phtIndex computes the PHT set index for a tag sequence ending at a miss
// in cache set missIndex (Figure 9).
func (t *TCP) phtIndex(seq []uint64, missIndex uint32) uint64 {
	var h uint64
	switch t.cfg.Hash {
	case HashXOR:
		for _, tag := range seq {
			h = (h << 3) ^ (h >> 13) ^ (tag & t.tagMask)
		}
	default: // truncated addition
		for _, tag := range seq {
			h += tag & t.tagMask
		}
	}
	hi := h & ((1 << t.hiBits) - 1)
	lo := uint64(missIndex & t.idxMask)
	return ((hi << uint(t.cfg.IndexBits)) | lo) & t.setMask
}

// OnMiss implements prefetch.Prefetcher: the update and lookup operations
// of Section 4, in that order, for one L1 demand miss.
func (t *TCP) OnMiss(m trace.Miss) []prefetch.Request {
	t.st.Misses++
	t.clock++
	k := t.cfg.HistoryDepth
	row := t.tht[int(m.Index)*k:][:k]

	// Update: train PHT[old sequence] with the observed successor.
	if t.thtFill[m.Index] == k {
		setIdx := t.phtIndex(row, m.Index)
		i := t.pht.Find(setIdx, uint32(row[k-1]))
		if i < 0 {
			i = t.allocate(setIdx, uint32(row[k-1]))
		}
		t.pht.Touch(i, t.clock)
		// Targets keep full tag width, so a prefetch address is rebuilt
		// exactly; TagBits truncates only matching and storage accounting.
		t.pht.Train(i, m.Tag)
		t.st.Updates++
	}

	// Shift the miss tag into the THT row.
	if t.thtFill[m.Index] < k {
		row[t.thtFill[m.Index]] = m.Tag
		t.thtFill[m.Index]++
	} else {
		copy(row, row[1:])
		row[k-1] = m.Tag
	}
	if t.thtFill[m.Index] < k {
		return nil
	}

	// Lookup: predict the successor of the new sequence.
	t.st.Lookups++
	reqs := t.reqs[:0]
	setIdx := t.phtIndex(row, m.Index)
	if i := t.pht.Find(setIdx, uint32(m.Tag)); i >= 0 && len(t.pht.Targets(i)) > 0 {
		t.pht.Touch(i, t.clock)
		t.st.Hits++
		for _, tg := range t.pht.Targets(i) {
			a := t.cfg.L1.Compose(tg, m.Index)
			if t.cfg.L1.Block(m.Addr) == a {
				continue // predicting the line that just missed is useless
			}
			reqs = append(reqs, prefetch.Request{Addr: a, ToL1: t.cfg.PrefetchToL1})
			t.st.Predictions++
		}
	}

	// Section 6 extension: per-set strided tag sequences predict
	// arithmetically, with no PHT entry at all.
	if t.cfg.StrideAssist {
		if next, ok := stridedNext(row); ok {
			a := t.cfg.L1.Compose(next, m.Index)
			if a != t.cfg.L1.Block(m.Addr) && !hasTarget(reqs, a) {
				reqs = append(reqs, prefetch.Request{Addr: a, ToL1: t.cfg.PrefetchToL1})
				t.st.StridePredictions++
			}
		}
	}
	t.reqs = reqs
	return reqs
}

// stridedNext reports the arithmetic successor of a constant-stride tag
// history (the "strided tag sequences" of Section 6), if the history is
// strided. At least 3 tags (two equal deltas) are required: with only two
// tags every pair would qualify and the assist would flood the L2 with
// arithmetic guesses, so the assist is inert unless HistoryDepth >= 3.
func stridedNext(row []uint64) (uint64, bool) {
	if len(row) < 3 {
		return 0, false
	}
	d := int64(row[1]) - int64(row[0])
	if d == 0 {
		return 0, false
	}
	for i := 2; i < len(row); i++ {
		if int64(row[i])-int64(row[i-1]) != d {
			return 0, false
		}
	}
	next := int64(row[len(row)-1]) + d
	if next < 0 {
		return 0, false
	}
	return uint64(next), true
}

func hasTarget(reqs []prefetch.Request, a addr.Addr) bool {
	for _, r := range reqs {
		if r.Addr == a {
			return true
		}
	}
	return false
}

// allocate gives lastTag a fresh PHT entry in setIdx, counting the
// allocation and any live correlation it displaces.
func (t *TCP) allocate(setIdx uint64, lastTag uint32) int {
	i, old, evicted := t.pht.Allocate(setIdx, lastTag)
	t.st.Allocs++
	if evicted {
		// A live correlation is displaced: the central cost of sharing a
		// small PHT across sets (Figures 11-13).
		t.st.Evictions++
		t.tr.Emit(telemetry.Event{Cycle: t.clock, Type: "pht.evict",
			Level: telemetry.LevelDebug, Addr: uint64(old), Value: int64(setIdx)})
	}
	return i
}

// OnAccess implements prefetch.Prefetcher (TCP only observes misses).
func (t *TCP) OnAccess(addr.Addr, addr.Addr, int64, bool) []prefetch.Request { return nil }

// StorageBits implements prefetch.Prefetcher: the PHT budget
// (sets x ways x (tag + Targets x tag')); the paper quotes designs by PHT
// size, with the ~4 KB THT (1024 x 2 x 16b) reported separately.
func (t *TCP) StorageBits() uint64 {
	entry := uint64(t.cfg.TagBits) * uint64(1+t.cfg.Targets)
	return uint64(t.cfg.PHTSets) * uint64(t.cfg.PHTWays) * entry
}

// Stats returns the predictor counters.
func (t *TCP) Stats() Stats { return t.st }
