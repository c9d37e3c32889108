package prefetch

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/critical"
	"tagprefetch/internal/trace"
)

// CriticalFiltered wraps a prefetcher so that only prefetches triggered by
// loads whose PC is predicted performance-critical are issued — the
// critical-miss filter the paper proposes as future work in Section 6
// ("only prefetches for critical misses will be issued, so that the
// prefetch-induced extra traffic can be reduced"). The inner prefetcher
// still observes the full miss stream, so its history stays intact; only
// the issue side is gated.
type CriticalFiltered struct {
	inner Prefetcher
	pred  *critical.Predictor

	suppressed uint64
}

// NewCriticalFiltered wraps inner with the given criticality predictor
// (which the core trains at load retirement).
func NewCriticalFiltered(inner Prefetcher, pred *critical.Predictor) *CriticalFiltered {
	return &CriticalFiltered{inner: inner, pred: pred}
}

// Name implements Prefetcher.
func (f *CriticalFiltered) Name() string { return f.inner.Name() + "+critfilter" }

func (f *CriticalFiltered) gate(pc addr.Addr, reqs []Request) []Request {
	if len(reqs) == 0 || f.pred.Critical(uint64(pc)) {
		return reqs
	}
	f.suppressed += uint64(len(reqs))
	return nil
}

// OnMiss implements Prefetcher.
func (f *CriticalFiltered) OnMiss(m trace.Miss) []Request {
	return f.gate(m.PC, f.inner.OnMiss(m))
}

// OnAccess implements Prefetcher.
func (f *CriticalFiltered) OnAccess(a, pc addr.Addr, cycle int64, hit bool) []Request {
	return f.gate(pc, f.inner.OnAccess(a, pc, cycle, hit))
}

// Suppressed returns the number of prefetch requests gated off.
func (f *CriticalFiltered) Suppressed() uint64 { return f.suppressed }

// StorageBits implements Prefetcher (inner tables + the criticality table).
func (f *CriticalFiltered) StorageBits() uint64 {
	return f.inner.StorageBits() + f.pred.StorageBits()
}
