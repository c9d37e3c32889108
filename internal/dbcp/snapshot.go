package dbcp

import (
	"fmt"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
)

// Save implements checkpoint.Snapshotter, writing the shadow directory,
// correlation table, clock, and statistics.
func (d *DBCP) Save(w *checkpoint.Writer) {
	w.Section("dbcp")
	w.I64(d.clock)
	w.U32(uint32(len(d.shadow)))
	for i := range d.shadow {
		sh := &d.shadow[i]
		w.U64(uint64(sh.block))
		w.U64(sh.sig)
		w.Bool(sh.valid)
	}
	w.U32(uint32(len(d.table)))
	for i := range d.table {
		e := &d.table[i]
		w.U64(e.key)
		w.U64(uint64(e.target))
		w.I64(e.used)
		w.Bool(e.valid)
	}
	w.U64(d.stats.Accesses)
	w.U64(d.stats.Misses)
	w.U64(d.stats.Deaths)
	w.U64(d.stats.Hits)
	w.U64(d.stats.Predictions)
}

// Restore implements checkpoint.Snapshotter.
func (d *DBCP) Restore(r *checkpoint.Reader) error {
	if err := r.Section("dbcp"); err != nil {
		return err
	}
	d.clock = r.I64()
	if n := int(r.U32()); r.Err() == nil && n != len(d.shadow) {
		return fmt.Errorf("dbcp: checkpoint shadow %d entries, want %d", n, len(d.shadow))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range d.shadow {
		sh := &d.shadow[i]
		sh.block = addr.Addr(r.U64())
		sh.sig = r.U64()
		sh.valid = r.Bool()
	}
	if n := int(r.U32()); r.Err() == nil && n != len(d.table) {
		return fmt.Errorf("dbcp: checkpoint table %d entries, want %d", n, len(d.table))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for i := range d.table {
		e := &d.table[i]
		e.key = r.U64()
		e.target = addr.Addr(r.U64())
		e.used = r.I64()
		e.valid = r.Bool()
	}
	d.stats.Accesses = r.U64()
	d.stats.Misses = r.U64()
	d.stats.Deaths = r.U64()
	d.stats.Hits = r.U64()
	d.stats.Predictions = r.U64()
	return r.Err()
}
