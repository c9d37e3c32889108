// Package dbcp implements the Dead-Block Correlating Prefetcher of Lai,
// Fide and Falsafi (ISCA 2001) — the paper's main comparison point
// (Figure 11: "DBCP with a 2 MB correlation table").
//
// DBCP correlates the *PC trace* of the instructions that touch a cache
// block (from fill to death) together with the block's address. When a
// block's accumulated trace signature matches a signature under which the
// block previously died, the block is predicted dead right now, and the
// correlation entry supplies the address that historically followed — which
// is prefetched into L2 (the paper runs DBCP in the same L1/L2 placement as
// TCP, without the critical-miss filter of the original).
//
// The implementation shadows the direct-mapped L1 data cache with a small
// directory holding each resident block's address and running truncated-add
// PC signature. On a miss, the displaced shadow entry is a completed death:
// the correlation table learns (victim address, victim signature) -> miss
// address. On every access the resident block's updated (address,
// signature) pair probes the table; a hit predicts death and prefetches.
package dbcp

import (
	"fmt"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
)

// Config parameterises a DBCP instance.
type Config struct {
	// L1 is the cache whose miss stream is observed (the paper's L1D is
	// direct-mapped, which the shadow directory relies on).
	L1 addr.Geometry
	// TableEntries is the number of correlation entries. The paper's 2 MB
	// table at 8 bytes/entry is 262144 entries (the default).
	TableEntries int
	// Ways is the table associativity (default 8).
	Ways int
	// SigBits is the truncated-addition signature width (default 16).
	SigBits int
}

func (c Config) withDefaults() Config {
	if c.TableEntries <= 0 {
		c.TableEntries = 262144
	}
	if c.Ways <= 0 {
		c.Ways = 8
	}
	if c.SigBits <= 0 || c.SigBits > 32 {
		c.SigBits = 16
	}
	return c
}

// DBCP2M returns the paper's comparison configuration: a 2 MB table.
func DBCP2M(l1 addr.Geometry) Config {
	return Config{L1: l1, TableEntries: 262144, Ways: 8}
}

// DBCP is the dead-block correlating prefetcher. Construct with New.
type DBCP struct {
	cfg     Config // configuration supplied at construction; decoding requires a same-config instance
	sigMask uint64 // geometry derived from cfg at construction
	setMask uint64 // geometry derived from cfg at construction

	shadow []shadowEntry // one per L1 set (direct-mapped)
	table  []corrEntry
	clock  int64

	stats Stats
	req   [1]prefetch.Request // scratch batch OnAccess returns
}

type shadowEntry struct {
	block addr.Addr
	sig   uint64
	valid bool
}

type corrEntry struct {
	key    uint64 // full (block, signature) key for exact matching
	target addr.Addr
	used   int64
	valid  bool
}

// Stats counts predictor activity.
type Stats struct {
	Accesses    uint64
	Misses      uint64
	Deaths      uint64 // completed block lifetimes learned
	Hits        uint64 // correlation-table hits (death predictions)
	Predictions uint64
}

// New creates a DBCP from cfg (zero fields take the paper's defaults).
func New(cfg Config) *DBCP {
	cfg = cfg.withDefaults()
	sets := cfg.TableEntries / cfg.Ways
	if sets == 0 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("dbcp: table sets %d not a power of two", sets))
	}
	return &DBCP{
		cfg:     cfg,
		sigMask: (1 << uint(cfg.SigBits)) - 1,
		setMask: uint64(sets - 1),
		shadow:  make([]shadowEntry, cfg.L1.Sets()),
		table:   make([]corrEntry, sets*cfg.Ways),
	}
}

// Name implements prefetch.Prefetcher.
func (d *DBCP) Name() string {
	return fmt.Sprintf("dbcp-%dM", d.StorageBits()/8>>20)
}

// key combines a block address and signature into the correlation key.
func (d *DBCP) key(block addr.Addr, sig uint64) uint64 {
	return uint64(block)<<uint(d.cfg.SigBits) | (sig & d.sigMask)
}

func (d *DBCP) index(key uint64) uint64 {
	// Mix the key so nearby blocks spread across table sets.
	h := key
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 29
	return h & d.setMask
}

func (d *DBCP) probe(key uint64) *corrEntry {
	base := int(d.index(key)) * d.cfg.Ways
	set := d.table[base : base+d.cfg.Ways]
	for i := range set {
		if set[i].valid && set[i].key == key {
			return &set[i]
		}
	}
	return nil
}

func (d *DBCP) allocate(key uint64) *corrEntry {
	if e := d.probe(key); e != nil {
		return e
	}
	base := int(d.index(key)) * d.cfg.Ways
	set := d.table[base : base+d.cfg.Ways]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	set[victim] = corrEntry{key: key, valid: true}
	return &set[victim]
}

// OnMiss implements prefetch.Prefetcher: learn the displaced block's death
// and start tracing the new block. Prediction happens in OnAccess (the
// miss access itself also flows through OnAccess).
func (d *DBCP) OnMiss(m trace.Miss) []prefetch.Request {
	d.stats.Misses++
	d.clock++
	sh := &d.shadow[m.Index]
	if sh.valid {
		d.stats.Deaths++
		e := d.allocate(d.key(sh.block, sh.sig))
		e.target = m.Addr
		e.used = d.clock
	}
	*sh = shadowEntry{block: m.Addr, valid: true}
	return nil
}

// OnAccess implements prefetch.Prefetcher: extend the resident block's PC
// trace and predict death on a signature match.
func (d *DBCP) OnAccess(a, pc addr.Addr, cycle int64, hit bool) []prefetch.Request {
	d.stats.Accesses++
	idx := d.cfg.L1.Index(a)
	sh := &d.shadow[idx]
	block := d.cfg.L1.Block(a)
	if !sh.valid || sh.block != block {
		// OnMiss installs the entry before the access is replayed; a
		// mismatch here means the simulator reordered events — resync.
		*sh = shadowEntry{block: block, valid: true}
	}
	sh.sig = (sh.sig + uint64(pc)>>2) & d.sigMask
	e := d.probe(d.key(block, sh.sig))
	if e == nil {
		return nil
	}
	d.clock++
	e.used = d.clock
	d.stats.Hits++
	if e.target == block {
		return nil
	}
	d.stats.Predictions++
	d.req[0] = prefetch.Request{Addr: e.target}
	return d.req[:]
}

// OnEvict implements prefetch.Prefetcher. The shadow directory already
// learns deaths from the replacing miss, so nothing extra is needed.
func (d *DBCP) OnEvict(addr.Addr, int64, int64, int64) {}

// StorageBits implements prefetch.Prefetcher: the paper charges DBCP for
// its correlation table; each entry holds a key tag and target address
// (8 bytes, giving 2 MB at 262144 entries).
func (d *DBCP) StorageBits() uint64 {
	return uint64(d.cfg.TableEntries) * 64
}

// Stats returns predictor counters.
func (d *DBCP) Stats() Stats { return d.stats }
