// Package coverage evaluates a prefetcher against a miss stream without
// timing: for every demand miss it asks the prefetcher for predictions and
// tracks, within a sliding window, whether predictions come true (accuracy)
// and whether misses were predicted beforehand (coverage). This separates
// the predictor-quality questions of Sections 3-4 from the machine-level
// effects (bus contention, timeliness, cache pollution) that the full
// simulator adds on top.
package coverage

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
)

// Result summarises a replay.
type Result struct {
	Misses      uint64
	Predictions uint64
	Covered     uint64 // misses predicted within the lookahead window
	Useful      uint64 // predictions consumed by a later miss in the window
}

// Coverage is the fraction of misses that had been predicted beforehand.
func (r Result) Coverage() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Misses)
}

// Accuracy is the fraction of predictions later consumed by a miss.
func (r Result) Accuracy() float64 {
	if r.Predictions == 0 {
		return 0
	}
	return float64(r.Useful) / float64(r.Predictions)
}

// Evaluator replays misses through a prefetcher. Construct with New.
type Evaluator struct {
	geom   addr.Geometry
	pf     prefetch.Prefetcher
	window int

	pending map[uint64]uint64 // blockID -> sequence number of prediction
	seq     uint64
	res     Result
}

// New creates an evaluator with the given lookahead window (number of
// subsequent misses within which a prediction may come true; default 512).
func New(g addr.Geometry, pf prefetch.Prefetcher, window int) *Evaluator {
	if window <= 0 {
		window = 512
	}
	return &Evaluator{
		geom:    g,
		pf:      pf,
		window:  window,
		pending: make(map[uint64]uint64),
	}
}

// Observe replays one miss.
func (e *Evaluator) Observe(m trace.Miss) {
	e.seq++
	e.res.Misses++

	// Was this miss predicted recently?
	id := e.geom.BlockID(m.Addr)
	if at, ok := e.pending[id]; ok {
		delete(e.pending, id)
		if e.seq-at <= uint64(e.window) {
			e.res.Covered++
			e.res.Useful++
		}
	}

	// Replay the miss both as a miss and as the (missing) access, since
	// access-triggered schemes like DBCP predict from OnAccess. Hit
	// accesses are not in the trace, so signature-based schemes see a
	// misses-only approximation of their access stream.
	reqs := e.pf.OnMiss(m)
	reqs = append(reqs, e.pf.OnAccess(m.Addr, m.PC, m.Cycle, false)...)
	for _, r := range reqs {
		e.res.Predictions++
		pid := e.geom.BlockID(r.Addr)
		if _, dup := e.pending[pid]; !dup {
			e.pending[pid] = e.seq
		}
	}
	e.gc()
}

// gc drops stale pending predictions so the map stays bounded.
func (e *Evaluator) gc() {
	if len(e.pending) < 4*e.window {
		return
	}
	// Map order cannot matter: each entry is dropped by an independent
	// staleness predicate, so the surviving contents do not depend on it.
	for id, at := range e.pending {
		if e.seq-at > uint64(e.window) {
			delete(e.pending, id)
		}
	}
}

// Result returns the metrics so far.
func (e *Evaluator) Result() Result { return e.res }

// Replay evaluates pf over an entire miss slice and returns the metrics.
func Replay(g addr.Geometry, pf prefetch.Prefetcher, misses []trace.Miss, window int) Result {
	e := New(g, pf, window)
	for _, m := range misses {
		e.Observe(m)
	}
	return e.Result()
}
