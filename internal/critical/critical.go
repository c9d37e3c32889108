// Package critical implements a PC-indexed critical-load predictor in the
// spirit of Srinivasan et al. ("Locality vs. Criticality", ISCA 2001) and
// Fields et al. ("Focusing Processor Policies via Critical-Path
// Prediction", ISCA 2001) — the line of work the paper points to in
// Section 6: "a critical miss filter may also be useful ... only
// prefetches for critical misses will be issued, so that the
// prefetch-induced extra traffic can be reduced."
//
// The core trains it at commit: a retiring load whose completion set the
// commit time (i.e. the window drained waiting for it) was critical; a load
// that completed in the shadow of other work was not. The prefetch filter
// then only forwards prefetches triggered by loads whose PC is predicted
// critical.
package critical

// Predictor is a table of PC-indexed saturating counters. Construct with
// New.
type Predictor struct {
	counters []uint8
	mask     uint64 // geometry derived from the table size at construction

	trainings uint64
	critical  uint64
}

// New creates a predictor with 2^bits counters.
func New(bits uint) *Predictor {
	n := 1 << bits
	return &Predictor{counters: make([]uint8, n), mask: uint64(n - 1)}
}

func (p *Predictor) idx(pc uint64) uint64 { return (pc >> 2) & p.mask }

// Train records whether the load at pc retired on the commit critical path.
func (p *Predictor) Train(pc uint64, wasCritical bool) {
	p.trainings++
	c := &p.counters[p.idx(pc)]
	if wasCritical {
		p.critical++
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// coldStart is the number of trainings during which every load is treated
// as critical, so cold misses are not filtered before there is evidence.
const coldStart = 64

// Critical predicts whether loads at pc are performance-critical.
func (p *Predictor) Critical(pc uint64) bool {
	if p.trainings < coldStart {
		return true
	}
	return p.counters[p.idx(pc)] >= 2
}

// Stats reports training activity.
type Stats struct {
	Trainings uint64
	Critical  uint64
}

// Stats returns training counters.
func (p *Predictor) Stats() Stats {
	return Stats{Trainings: p.trainings, Critical: p.critical}
}

// StorageBits returns the table budget (2 bits per counter).
func (p *Predictor) StorageBits() uint64 { return uint64(len(p.counters)) * 2 }
