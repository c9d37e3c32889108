// Package memsys assembles the simulated memory hierarchy of Table 1: a
// 32 KB direct-mapped write-back L1 data cache with 64 MSHRs, a 32-byte
// 2 GHz L1/L2 bus, a 1 MB 4-way L2 with 12-cycle latency, an L2/memory bus,
// and 70-cycle main memory — with a prefetcher positioned between L1 and L2
// exactly as in Figure 10: it observes the L1 demand-miss stream and issues
// prefetches that fill the L2 (and, for the hybrid scheme, promotes blocks
// into L1 once the victim line is predicted dead, over a dedicated
// prefetch bus; Section 5.2.2).
//
// The package also implements the L2-access categorisation of Figure 12:
// every demand L2 access is either "prefetched original" (it hit a line
// brought in by a prefetch) or "non-prefetched original"; prefetch fills
// that are never demanded count as "prefetched extra".
package memsys

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/bus"
	"tagprefetch/internal/cache"
	"tagprefetch/internal/deadblock"
	"tagprefetch/internal/dram"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
)

// Config parameterises the hierarchy. Zero fields take Table 1 defaults.
type Config struct {
	L1D addr.Geometry
	L2  addr.Geometry

	L1HitLatency int64 // cycles for an L1 hit (and miss detection)
	L2Latency    int64 // L2 array access latency
	MemLatency   int64 // main memory access latency
	L1L2BusBytes int   // bytes per core cycle on the L1/L2 bus
	MemBusBytes  int   // bytes per core cycle on the L2/memory bus
	MSHRs        int
	IdealL2      bool // every L2 access hits (Figure 1's ideal L2)
	PrefetchBus  bool // dedicated L1/L2 bus for prefetch fills into L1
	MaxPerMiss   int  // cap on prefetches issued per demand miss (default 4)
}

// DefaultConfig returns the paper's Table 1 memory hierarchy.
func DefaultConfig() Config {
	return Config{
		L1D:          addr.MustGeometry(32*1024, 1, 32),
		L2:           addr.MustGeometry(1<<20, 4, 64),
		L1HitLatency: 1,
		L2Latency:    12,
		MemLatency:   70,
		L1L2BusBytes: 32,
		MemBusBytes:  8,
		MSHRs:        64,
		MaxPerMiss:   4,
	}
}

func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.L1D.Sets() == 0 {
		c.L1D = d.L1D
	}
	if c.L2.Sets() == 0 {
		c.L2 = d.L2
	}
	if c.L1HitLatency <= 0 {
		c.L1HitLatency = d.L1HitLatency
	}
	if c.L2Latency <= 0 {
		c.L2Latency = d.L2Latency
	}
	if c.MemLatency <= 0 {
		c.MemLatency = d.MemLatency
	}
	if c.L1L2BusBytes <= 0 {
		c.L1L2BusBytes = d.L1L2BusBytes
	}
	if c.MemBusBytes <= 0 {
		c.MemBusBytes = d.MemBusBytes
	}
	if c.MSHRs <= 0 {
		c.MSHRs = d.MSHRs
	}
	if c.MaxPerMiss <= 0 {
		c.MaxPerMiss = d.MaxPerMiss
	}
	return c
}

// Stats holds the hierarchy counters, including Figure 12's categories.
type Stats struct {
	Accesses   uint64
	L1Hits     uint64
	L1Misses   uint64
	MSHRMerges uint64
	MSHRStalls uint64

	// Figure 12 categories (all demand L2 accesses plus unused prefetches).
	L2Demand              uint64 // "original" L2 accesses
	PrefetchedOriginal    uint64 // demand hits on prefetched L2 lines
	NonPrefetchedOriginal uint64
	PrefetchedExtra       uint64 // prefetch fills never demanded

	L2Hits   uint64 // demand L2 hits
	L2Misses uint64 // demand L2 misses (to memory)

	PrefetchIssued     uint64 // requests accepted from the prefetcher
	PrefetchDropped    uint64 // already in L1/L2 or in flight
	PrefetchFills      uint64 // prefetch-initiated L2 fills from memory
	PrefetchToL1Fills  uint64 // hybrid promotions into L1
	PrefetchL1Rejected uint64 // promotions blocked by a live victim
}

// Fields lists every counter, in checkpoint order.
func (s *Stats) Fields() [16]*uint64 {
	return [...]*uint64{&s.Accesses, &s.L1Hits, &s.L1Misses,
		&s.MSHRMerges, &s.MSHRStalls, &s.L2Demand,
		&s.PrefetchedOriginal, &s.NonPrefetchedOriginal, &s.PrefetchedExtra,
		&s.L2Hits, &s.L2Misses, &s.PrefetchIssued, &s.PrefetchDropped,
		&s.PrefetchFills, &s.PrefetchToL1Fills, &s.PrefetchL1Rejected}
}

// own lists the counters the hierarchy itself keeps, in checkpoint order:
// Fields minus Accesses, L1Hits and L1Misses, which are the L1 cache's own
// counters.
func (s *Stats) own() []*uint64 {
	f := s.Fields()
	return f[3:]
}

// Sub returns the per-counter difference s - w, used to report
// measured-window statistics after a warmup boundary.
func (s Stats) Sub(w Stats) Stats {
	sf, wf := s.Fields(), w.Fields()
	for i, f := range sf {
		*f -= *wf[i]
	}
	return s
}

// MemSys is the memory hierarchy. Construct with New.
type MemSys struct {
	cfg Config // configuration supplied at construction; decoding requires a same-config instance

	l1d    *cache.Cache
	l2     *cache.Cache
	l1Bus  *bus.Bus
	pfBus  *bus.Bus // nil unless cfg.PrefetchBus
	memBus *bus.Bus
	mem    *dram.Memory
	mshr   *cache.MSHRFile

	pf   prefetch.Prefetcher
	l2pf prefetch.Prefetcher  // nil unless a prefetcher observes the L2 miss stream
	dbp  *deadblock.Predictor // nil unless hybrid promotion is enabled

	// pfNoop elides the prefetcher plumbing when pf is the stateless
	// prefetch.None baseline and no L2 prefetcher is attached: every
	// OnMiss/OnAccess call then provably returns nil and mutates
	// nothing, so the trace.Miss construction and request-batch handling
	// around them are dead work. setPrefetchers derives it whenever pf or
	// l2pf changes.
	pfNoop bool // derived from pf and l2pf, which decoding requires to match

	st  Stats             // hierarchy counters, single-writer; the L1 fields stay zero (see fields)
	pub telemetry.Mirror  // host-side registry mirror of st, republished after a decode
	tr  *telemetry.Tracer // host-side observability wiring, outside the simulated state
}

// counterPublisher is a prefetcher that mirrors its own counters into the
// registry (core.TCP).
type counterPublisher interface {
	PublishCounters()
}

// New builds the hierarchy with the given prefetcher (nil means none).
func New(cfg Config, pf prefetch.Prefetcher) *MemSys {
	cfg = cfg.WithDefaults()
	if pf == nil {
		pf = prefetch.None{}
	}
	memBus := bus.New("l2-mem", cfg.MemBusBytes)
	m := &MemSys{
		cfg:    cfg,
		l1d:    cache.New("L1D", cfg.L1D),
		l2:     cache.New("L2", cfg.L2),
		l1Bus:  bus.New("l1-l2", cfg.L1L2BusBytes),
		memBus: memBus,
		mem:    dram.New(cfg.MemLatency, memBus),
		mshr:   cache.NewMSHRFile(cfg.MSHRs),
		tr:     telemetry.Nop(),
	}
	if cfg.PrefetchBus {
		m.pfBus = bus.New("l1-l2-prefetch", cfg.L1L2BusBytes)
	}
	m.setPrefetchers(pf, nil)
	return m
}

// setPrefetchers attaches the L1-side and L2-side prefetchers and derives
// pfNoop from them.
func (m *MemSys) setPrefetchers(pf, l2pf prefetch.Prefetcher) {
	m.pf, m.l2pf = pf, l2pf
	_, none := pf.(prefetch.None)
	m.pfNoop = none && l2pf == nil
}

// UseL2Prefetcher attaches a second prefetcher at the L2/memory boundary:
// it observes demand L2 misses (addresses decomposed under the L2 geometry)
// and its prefetches fill the L2 from memory. Used by the placement
// ablation (A8) — the paper positions its prefetcher between L1 and L2
// (Figure 10) precisely because the L1 miss stream is richer; this hook
// lets that choice be measured.
func (m *MemSys) UseL2Prefetcher(p prefetch.Prefetcher) { m.setPrefetchers(m.pf, p) }

// UseDeadBlockPredictor enables hybrid L1 promotion gated by p.
func (m *MemSys) UseDeadBlockPredictor(p *deadblock.Predictor) { m.dbp = p }

// AttachTelemetry registers the hierarchy's counters into reg (typically a
// view scoped to "memsys": the L1/L2 caches land under "memsys.l1" and
// "memsys.l2") and directs discrete events — prefetch issued/useful/late,
// MSHR stalls, dead-block promotion decisions — to tr. Attached
// prefetchers that implement telemetry.Component are wired under
// "prefetch" relative to reg. tr may be nil for metrics-only attachment.
// The registry counters are mirrors: PublishCounters refreshes them.
func (m *MemSys) AttachTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	s, p := &m.st, &m.pub
	p.Bind(reg, &s.MSHRMerges, telemetry.NewCounter("mshr.merges", "misses merged with an in-flight fill"))
	p.Bind(reg, &s.MSHRStalls, telemetry.NewCounter("mshr.stalls", "misses stalled on a full MSHR file"))
	p.Bind(reg, &s.L2Demand, telemetry.NewCounter("l2.demand", "demand (original) L2 accesses"))
	p.Bind(reg, &s.PrefetchedOriginal, telemetry.NewCounter("l2.prefetched_original", "demand hits on prefetched L2 lines (Figure 12)"))
	p.Bind(reg, &s.NonPrefetchedOriginal, telemetry.NewCounter("l2.non_prefetched_original", "demand L2 accesses not served by a prefetch (Figure 12)"))
	p.Bind(reg, &s.PrefetchedExtra, telemetry.NewCounter("l2.prefetched_extra", "prefetch fills never demanded (Figure 12)"))
	p.Bind(reg, &s.L2Hits, telemetry.NewCounter("l2.demand_hits", "demand L2 hits"))
	p.Bind(reg, &s.L2Misses, telemetry.NewCounter("l2.demand_misses", "demand L2 misses (to memory)"))
	p.Bind(reg, &s.PrefetchIssued, telemetry.NewCounter("prefetch.issued", "prefetch requests accepted from the prefetcher"))
	p.Bind(reg, &s.PrefetchDropped, telemetry.NewCounter("prefetch.dropped", "prefetch requests already resident or in flight"))
	p.Bind(reg, &s.PrefetchFills, telemetry.NewCounter("prefetch.fills", "prefetch-initiated L2 fills from memory"))
	p.Bind(reg, &s.PrefetchToL1Fills, telemetry.NewCounter("prefetch.to_l1_fills", "hybrid promotions into L1"))
	p.Bind(reg, &s.PrefetchL1Rejected, telemetry.NewCounter("prefetch.l1_rejected", "promotions blocked by a live victim"))
	m.l1d.AttachTelemetry(reg.Sub("l1"), tr)
	m.l2.AttachTelemetry(reg.Sub("l2"), tr)
	if tr != nil {
		m.tr = tr
	}
	if c, ok := m.pf.(telemetry.Component); ok {
		c.AttachTelemetry(reg.Sub("prefetch"), tr)
	}
	if c, ok := m.l2pf.(telemetry.Component); ok {
		c.AttachTelemetry(reg.Sub("l2prefetch"), tr)
	}
}

// PublishCounters stores the hierarchy's, both caches' and the attached
// prefetchers' counters into the registry mirrors bound by AttachTelemetry.
// It runs at the machine's publish points (cpu.Core.OnPublish), at Finish
// and after a checkpoint decode, on the simulation goroutine.
func (m *MemSys) PublishCounters() {
	m.pub.Publish()
	m.l1d.PublishCounters()
	m.l2.PublishCounters()
	for _, pf := range [...]prefetch.Prefetcher{m.pf, m.l2pf} {
		if p, ok := pf.(counterPublisher); ok {
			p.PublishCounters()
		}
	}
}

// Config returns the effective configuration.
func (m *MemSys) Config() Config { return m.cfg }

// L2 exposes the L2 cache.
func (m *MemSys) L2() *cache.Cache { return m.l2 }

// Access performs a demand load or store issued at cycle `now` and returns
// the cycle at which the data is available to the core. The hit path must
// stay allocation-free; misses take the separate miss slow path.
//
// Every load and store walks through here.
func (m *MemSys) Access(a, pc addr.Addr, write bool, now int64) int64 {
	res := m.l1d.Access(a, write, now)
	if res.Hit {
		if res.Prefetched {
			m.tr.Emit(telemetry.Event{Cycle: now, Type: "prefetch.useful",
				Level: telemetry.LevelInfo, Addr: uint64(a), PC: uint64(pc)})
			if res.ReadyAt > now {
				// The prefetch was issued but its data had not yet arrived:
				// useful, but late (partial latency hidden).
				m.tr.Emit(telemetry.Event{Cycle: now, Type: "prefetch.late",
					Level: telemetry.LevelInfo, Addr: uint64(a), Value: res.ReadyAt - now})
			}
			// First demand touch of a promoted line: without this hook the
			// hit would vanish from the per-set miss stream and starve the
			// prefetcher's history, so train it on a virtual miss (and let
			// it chain the next prediction).
			if !m.pfNoop {
				m.issue(m.pf.OnMiss(trace.MakeMiss(m.cfg.L1D, a, pc, now, write)), now)
			}
		}
		if !m.pfNoop {
			m.issue(m.pf.OnAccess(a, pc, now, true), now)
		}
		if ready := now + m.cfg.L1HitLatency; ready > res.ReadyAt {
			return ready
		}
		return res.ReadyAt
	}
	return m.miss(a, pc, write, now)
}

// miss handles an L1 demand miss: MSHR merge/stall, the L2/memory walk,
// the L1 fill with write-allocate, and prefetcher training. It is split
// from Access so the hit path stays small.
func (m *MemSys) miss(a, pc addr.Addr, write bool, now int64) int64 {
	// Merge with an in-flight fill of the same block. Entries are retired
	// lazily: a completed entry found here is dropped instead of merged.
	if e, ok := m.mshr.Lookup(m.cfg.L1D, a); ok {
		if e.ReadyAt > now {
			m.st.MSHRMerges++
			return e.ReadyAt
		}
		m.mshr.Remove(m.cfg.L1D, a)
	}

	start := now
	if m.mshr.InFlight() >= m.mshr.Capacity() {
		// Stall until the earliest in-flight fill retires.
		m.st.MSHRStalls++
		if t := m.mshr.EarliestReady(); t > start {
			start = t
		}
		m.mshr.ReleaseBefore(start)
		m.tr.Emit(telemetry.Event{Cycle: now, Type: "mshr.stall",
			Level: telemetry.LevelInfo, Addr: uint64(a), Value: start - now})
	}

	readyAt := m.fillFromL2(a, pc, start, false)
	// The Access above just missed and nothing has touched the set since,
	// so the fill cannot merge: FillFresh skips the dead merge scan.
	ev := m.l1d.FillFresh(a, start, readyAt, false)
	if write {
		m.l1d.SetDirty(a) // write-allocate: the store dirties the new line
	}
	m.handleL1Eviction(ev, start)
	m.mshr.Allocate(m.cfg.L1D, a, readyAt)

	if !m.pfNoop {
		miss := trace.MakeMiss(m.cfg.L1D, a, pc, start, write)
		reqs := m.pf.OnMiss(miss)
		// No scheme returns requests from both calls (DBCP predicts on
		// access, the rest on miss), so taking the non-empty batch keeps
		// the miss path allocation-free.
		if more := m.pf.OnAccess(a, pc, start, false); len(reqs) == 0 {
			reqs = more
		} else if len(more) > 0 {
			reqs = append(reqs, more...)
		}
		m.issue(reqs, start)
	}

	return readyAt
}

// fillFromL2 walks the L2 (and memory) for block a, returning when the L1
// block's data arrives at L1. demand=false is the prefetch path (no L1 bus
// transfer; data stops at L2).
func (m *MemSys) fillFromL2(a, pc addr.Addr, now int64, isPrefetch bool) int64 {
	reqAt := now + m.cfg.L1HitLatency // miss detection
	// The request occupies the L1/L2 bus briefly (address/command beat).
	if !isPrefetch {
		reqAt = m.l1Bus.Transfer(reqAt, 8)
	}
	res := m.l2.Access(m.cfg.L2.Block(a), false, reqAt)
	var dataAt int64
	switch {
	case res.Hit:
		if !isPrefetch {
			m.st.L2Demand++
			m.st.L2Hits++
			if res.Prefetched {
				m.st.PrefetchedOriginal++
			} else {
				m.st.NonPrefetchedOriginal++
			}
		}
		dataAt = reqAt + m.cfg.L2Latency
		if res.ReadyAt > dataAt {
			dataAt = res.ReadyAt // in-flight fill: pay remaining latency
		}
	case m.cfg.IdealL2:
		if !isPrefetch {
			m.st.L2Demand++
			m.st.L2Hits++
			m.st.NonPrefetchedOriginal++
		}
		dataAt = reqAt + m.cfg.L2Latency
		m.fillL2(a, reqAt, dataAt, isPrefetch)
	default:
		if !isPrefetch {
			m.st.L2Demand++
			m.st.L2Misses++
			m.st.NonPrefetchedOriginal++
		}
		dataAt = m.mem.Read(reqAt+m.cfg.L2Latency, m.cfg.L2.BlockBytes())
		m.fillL2(a, reqAt, dataAt, isPrefetch)
		if !isPrefetch && m.l2pf != nil {
			m.issue(m.l2pf.OnMiss(trace.MakeMiss(m.cfg.L2, a, pc, reqAt, false)), reqAt)
		}
	}
	if isPrefetch {
		return dataAt
	}
	// Transfer the L1 block back over the L1/L2 bus.
	return m.l1Bus.Transfer(dataAt, m.cfg.L1D.BlockBytes())
}

// fillL2 installs block a into the L2, accounting evictions.
func (m *MemSys) fillL2(a addr.Addr, now, readyAt int64, isPrefetch bool) {
	if isPrefetch {
		m.st.PrefetchFills++
	}
	// Every caller sits directly behind a same-cycle L2 miss (demand walk,
	// ideal-L2 install, write-back install, prefetch fill), so the block is
	// provably absent and the merge scan would be dead work.
	ev := m.l2.FillFresh(m.cfg.L2.Block(a), now, readyAt, isPrefetch)
	if !ev.Valid {
		return
	}
	if ev.WasPrefetched {
		m.st.PrefetchedExtra++
	}
	if ev.Dirty {
		m.mem.Write(now, m.cfg.L2.BlockBytes())
	}
}

// handleL1Eviction forwards eviction metadata to the dead-block predictor
// and writes dirty victims back to the L2.
func (m *MemSys) handleL1Eviction(ev cache.Eviction, now int64) {
	if !ev.Valid {
		return
	}
	if m.dbp != nil {
		m.dbp.OnEvict(ev.Addr, ev.FilledAt, ev.LastTouch)
	}
	if ev.Dirty {
		m.l1Bus.Transfer(now, m.cfg.L1D.BlockBytes())
		// Update the L2 copy (write-back); if absent, install it. These go
		// straight to the cache model, not through the demand-access
		// bookkeeping — write-backs are not "original" L2 accesses.
		l2a := m.cfg.L2.Block(ev.Addr)
		if r := m.l2.Access(l2a, true, now); !r.Hit {
			m.fillL2(ev.Addr, now, now, false)
			m.l2.Access(l2a, true, now) // mark the fresh line dirty
		}
	}
}

// issue sends prefetch requests down the hierarchy.
func (m *MemSys) issue(reqs []prefetch.Request, now int64) {
	for i, r := range reqs {
		if i >= m.cfg.MaxPerMiss {
			break
		}
		m.issueOne(r, now)
	}
}

func (m *MemSys) issueOne(r prefetch.Request, now int64) {
	// Already in L1: nothing to do.
	if m.l1d.Probe(r.Addr) {
		m.st.PrefetchDropped++
		return
	}
	// In flight already?
	if e, ok := m.mshr.Lookup(m.cfg.L1D, r.Addr); ok && e.ReadyAt > now {
		m.st.PrefetchDropped++
		return
	}
	l2a := m.cfg.L2.Block(r.Addr)
	if m.l2.Probe(l2a) {
		// "The L2 first checks whether the target data is already in
		// itself. If found, the prefetch is completed." (Section 4)
		m.st.PrefetchDropped++
		if r.ToL1 {
			m.promoteToL1(r.Addr, now, now+m.cfg.L2Latency)
		}
		return
	}
	m.st.PrefetchIssued++
	m.tr.Emit(telemetry.Event{Cycle: now, Type: "prefetch.issued",
		Level: telemetry.LevelInfo, Addr: uint64(r.Addr)})
	dataAt := m.fillFromL2(r.Addr, 0, now, true)
	if r.ToL1 {
		m.promoteToL1(r.Addr, now, dataAt)
	}
}

// promoteToL1 installs a prefetched block into the L1, deferred until the
// victim line is predicted dead (Section 5.2.2: "the predicted data is
// prefetched into L2 immediately, but will update L1 only after the
// corresponding cache line is predicted dead"). Without a dead-block
// predictor the promotion is rejected — prefetching into L1 blindly is
// exactly what the paper warns against.
func (m *MemSys) promoteToL1(a addr.Addr, now, dataAt int64) {
	if m.dbp == nil {
		m.st.PrefetchL1Rejected++
		return
	}
	// Promote only when the victim dies around the time the prefetched
	// data arrives; a victim with a long predicted remaining lifetime
	// keeps its L1 slot and the block stays in L2 (Section 5.2.2's "update
	// L1 only after the corresponding cache line is predicted dead").
	// Deferring further would make later demand hits wait on the in-flight
	// promoted line far beyond an L2 hit.
	const promoteSlack = 1024
	promoteAt := dataAt
	if v, ok := m.l1d.VictimFor(a); ok {
		victimAddr := m.cfg.L1D.Compose(v.Tag, m.cfg.L1D.Index(a))
		deadAt := m.dbp.DeadAt(victimAddr, v.LastTouch)
		m.tr.Emit(telemetry.Event{Cycle: now, Type: "deadblock.predict",
			Level: telemetry.LevelDebug, Addr: uint64(victimAddr), Value: deadAt})
		if deadAt > dataAt+promoteSlack {
			m.st.PrefetchL1Rejected++
			return
		}
		if deadAt > promoteAt {
			promoteAt = deadAt
		}
	}
	// Transfer over the dedicated prefetch bus when configured, else the
	// shared L1/L2 bus (competing with demand traffic).
	b := m.pfBus
	if b == nil {
		b = m.l1Bus
	}
	readyAt := b.Transfer(promoteAt, m.cfg.L1D.BlockBytes())
	ev := m.l1d.Fill(a, promoteAt, readyAt, true)
	m.handleL1Eviction(ev, promoteAt)
	m.st.PrefetchToL1Fills++
}

// Finish closes the books at the end of a run: prefetched L2 lines never
// demanded count as "prefetched extra" (Figure 12). It publishes the
// final counters.
func (m *MemSys) Finish() {
	m.st.PrefetchedExtra += uint64(m.l2.UnusedPrefetched())
	m.st.PrefetchedExtra += uint64(m.l1d.UnusedPrefetched())
	m.PublishCounters()
}

// Stats returns the hierarchy counters. The per-access fields (Accesses,
// L1Hits, L1Misses) are read from the L1 cache counters — the hierarchy
// sees exactly the L1 demand stream.
func (m *MemSys) Stats() Stats {
	s, l1 := m.st, m.l1d.Stats()
	s.Accesses, s.L1Hits, s.L1Misses = l1.Accesses, l1.Hits, l1.Misses
	return s
}

// L1Stats and L2Stats expose the underlying cache counters.
func (m *MemSys) L1Stats() cache.Stats { return m.l1d.Stats() }

// L2Stats returns the L2 cache counters.
func (m *MemSys) L2Stats() cache.Stats { return m.l2.Stats() }

// Quiesce settles timing state left behind by a functional fast-forward
// warmup, at boundary cycle now. The functional clock advances one cycle
// per instruction — far faster than the cycle-accurate pipeline — so bus
// queueing and fill completions computed against it sit at fictitious
// future times that would otherwise stall the measured window's first
// accesses for the difference between the two clocks.
//
// Buses and settled cache lines clamp flat to the boundary (an idle
// interconnect, all past fills visible). In-flight MSHR entries clamp to
// boundary + the worst-case cycle-accurate fill latency instead of
// retiring outright: the cycle-accurate engine reaches its own boundary
// with up to a full MSHR file of stragglers that keep merging demands for
// a short horizon, and the merge path decides cache *contents* (a merge
// suppresses the refill), so cutting those windows to zero would perturb
// demand hit/miss streams, not just timing (docs/FASTFORWARD.md).
func (m *MemSys) Quiesce(now int64) {
	// Raw latency of a full miss path — L1 detect, both bus crossings of
	// one block, L2 array, memory array — with queueing bounded by the
	// same transfer terms again.
	blk := int64(m.cfg.L1D.BlockBytes())
	horizon := m.cfg.L1HitLatency + m.cfg.L2Latency + m.cfg.MemLatency + 4*blk
	m.l1Bus.Quiesce(now)
	if m.pfBus != nil {
		m.pfBus.Quiesce(now)
	}
	m.memBus.Quiesce(now)
	m.mshr.Quiesce(now + horizon)
	m.l1d.Quiesce(now)
	m.l2.Quiesce(now)
}
