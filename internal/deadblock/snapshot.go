package deadblock

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
)

// Save implements checkpoint.Snapshotter. The ring already holds the live
// table's keys in insertion order (that order IS the FIFO replacement
// state), so serialising ring entries with their live times captures the
// map deterministically without sorting.
func (p *Predictor) Save(w *checkpoint.Writer) {
	w.Section("deadblock")
	w.U64(p.stats.Learned)
	w.U64(p.stats.Queries)
	w.U64(p.stats.PredictDead)
	w.Int(p.ringHead)
	w.U32(uint32(len(p.ring)))
	for _, id := range p.ring {
		w.U64(id)
		w.I64(p.live[id])
	}
}

// Restore implements checkpoint.Snapshotter, rebuilding the live table by
// replaying ring insertions in order.
func (p *Predictor) Restore(r *checkpoint.Reader) error {
	if err := r.Section("deadblock"); err != nil {
		return err
	}
	p.stats.Learned = r.U64()
	p.stats.Queries = r.U64()
	p.stats.PredictDead = r.U64()
	head := r.Int()
	n := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n > p.cfg.Entries {
		return fmt.Errorf("deadblock: checkpoint ring %d entries, max %d", n, p.cfg.Entries)
	}
	if head < 0 || (n > 0 && head >= p.cfg.Entries) || (n == 0 && head != 0) {
		return fmt.Errorf("deadblock: checkpoint ring head %d out of range", head)
	}
	p.ringHead = head
	p.ring = p.ring[:0]
	p.live = make(map[uint64]int64, p.cfg.Entries)
	for i := 0; i < n; i++ {
		id := r.U64()
		lt := r.I64()
		if r.Err() != nil {
			break
		}
		p.ring = append(p.ring, id)
		p.live[id] = lt
	}
	return r.Err()
}
