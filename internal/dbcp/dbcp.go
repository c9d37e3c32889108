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

	shadow []shadowEntry          // one per L1 set (direct-mapped)
	table  prefetch.Table[uint64] // keyed by (block, signature); one target, the block that followed the death
	clock  int64

	stats Stats
	req   [1]prefetch.Request // scratch batch OnAccess returns
}

type shadowEntry struct {
	block addr.Addr
	sig   uint64
	valid bool
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
	sets := max(cfg.TableEntries/cfg.Ways, 1)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("dbcp: table sets %d not a power of two", sets))
	}
	return &DBCP{
		cfg:     cfg,
		sigMask: (1 << uint(cfg.SigBits)) - 1,
		setMask: uint64(sets - 1),
		shadow:  make([]shadowEntry, cfg.L1.Sets()),
		table:   prefetch.NewTable(sets, cfg.Ways, 1, ^uint64(0)),
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

// OnMiss implements prefetch.Prefetcher: learn the displaced block's death
// and start tracing the new block. Prediction happens in OnAccess (the
// miss access itself also flows through OnAccess).
func (d *DBCP) OnMiss(m trace.Miss) []prefetch.Request {
	d.stats.Misses++
	d.clock++
	sh := &d.shadow[m.Index]
	if sh.valid {
		d.stats.Deaths++
		key := d.key(sh.block, sh.sig)
		set := d.index(key)
		i := d.table.Find(set, key)
		if i < 0 {
			i, _, _ = d.table.Allocate(set, key)
		}
		d.table.Train(i, uint64(m.Addr))
		d.table.Touch(i, d.clock)
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
	key := d.key(block, sh.sig)
	i := d.table.Find(d.index(key), key)
	if i < 0 {
		return nil
	}
	d.clock++
	d.table.Touch(i, d.clock)
	d.stats.Hits++
	next := d.table.Targets(i)
	if len(next) == 0 || addr.Addr(next[0]) == block {
		return nil
	}
	d.stats.Predictions++
	d.req[0] = prefetch.Request{Addr: addr.Addr(next[0])}
	return d.req[:]
}

// StorageBits implements prefetch.Prefetcher: the paper charges DBCP for
// its correlation table; each entry holds a key tag and target address
// (8 bytes, giving 2 MB at 262144 entries).
func (d *DBCP) StorageBits() uint64 {
	return uint64(d.cfg.TableEntries) * 64
}

// Stats returns predictor counters.
func (d *DBCP) Stats() Stats { return d.stats }
