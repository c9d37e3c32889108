package coverage

import (
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/core"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/trace"
)

func g() addr.Geometry { return addr.MustGeometry(32*1024, 1, 32) }

func missSeq(geo addr.Geometry, set uint32, tags ...uint64) []trace.Miss {
	out := make([]trace.Miss, len(tags))
	for i, tag := range tags {
		out[i] = trace.MakeMiss(geo, geo.Compose(tag, set), 0, int64(i), false)
	}
	return out
}

func TestEmptyResult(t *testing.T) {
	var r Result
	if r.Coverage() != 0 || r.Accuracy() != 0 {
		t.Error("empty result not zero")
	}
}

func TestNonePrefetcherZeroCoverage(t *testing.T) {
	geo := g()
	r := Replay(geo, prefetch.None{}, missSeq(geo, 0, 1, 2, 3, 1, 2, 3), 16)
	if r.Misses != 6 || r.Predictions != 0 || r.Coverage() != 0 {
		t.Errorf("result = %+v", r)
	}
}

func TestTCPOnCyclicPattern(t *testing.T) {
	geo := g()
	tcp := core.New(core.TCP8K(geo))
	// 12 cycles of 1,2,3: once trained, TCP predicts every next miss.
	var tags []uint64
	for i := 0; i < 12; i++ {
		tags = append(tags, 1, 2, 3)
	}
	r := Replay(geo, tcp, missSeq(geo, 7, tags...), 16)
	if r.Predictions == 0 {
		t.Fatal("no predictions")
	}
	if r.Coverage() < 0.7 {
		t.Errorf("coverage = %.2f, want high on a cyclic pattern", r.Coverage())
	}
	if r.Accuracy() < 0.7 {
		t.Errorf("accuracy = %.2f, want high on a cyclic pattern", r.Accuracy())
	}
}

func TestUselessPredictionsLowerAccuracy(t *testing.T) {
	geo := g()
	tcp := core.New(core.TCP8K(geo))
	// Train (1,2)->3, then re-trigger (1,2) but never miss on 3 again.
	misses := missSeq(geo, 7, 1, 2, 3, 1, 2, 9, 1, 2, 9)
	r := Replay(geo, tcp, misses, 16)
	if r.Predictions == 0 {
		t.Fatal("no predictions")
	}
	if r.Accuracy() > 0.99 {
		t.Errorf("accuracy = %.2f despite wrong predictions", r.Accuracy())
	}
}

func TestWindowExpiry(t *testing.T) {
	geo := g()
	next := prefetch.NewNextLine(geo, 1)
	// Miss at block 0 predicts block 1; then 10 unrelated misses; then the
	// miss on block 1 arrives outside the window of 4: not covered.
	var misses []trace.Miss
	misses = append(misses, trace.MakeMiss(geo, 0, 0, 0, false))
	for i := 0; i < 10; i++ {
		misses = append(misses, trace.MakeMiss(geo, addr.Addr(0x100000+i*0x8000), 0, 0, false))
	}
	misses = append(misses, trace.MakeMiss(geo, 32, 0, 0, false))
	r := Replay(geo, next, misses, 4)
	if r.Covered != 0 {
		t.Errorf("stale prediction counted: %+v", r)
	}
	// With a big window it is covered.
	r = Replay(geo, next, misses, 64)
	if r.Covered != 1 {
		t.Errorf("prediction within window not counted: %+v", r)
	}
}

func TestNextLineOnSequentialStream(t *testing.T) {
	geo := g()
	var misses []trace.Miss
	for i := 0; i < 200; i++ {
		misses = append(misses, trace.MakeMiss(geo, addr.Addr(i*32), 0, 0, false))
	}
	r := Replay(geo, prefetch.NewNextLine(geo, 1), misses, 8)
	if r.Coverage() < 0.95 {
		t.Errorf("next-line coverage on sequential = %.2f", r.Coverage())
	}
	if r.Accuracy() < 0.95 {
		t.Errorf("next-line accuracy on sequential = %.2f", r.Accuracy())
	}
}

func TestGCKeepsPendingBounded(t *testing.T) {
	geo := g()
	e := New(geo, prefetch.NewNextLine(geo, 4), 8)
	for i := 0; i < 10000; i++ {
		// Random-ish blocks: predictions never come true.
		e.Observe(trace.MakeMiss(geo, addr.Addr(i*0x10040), 0, 0, false))
	}
	if len(e.pending) > 64 {
		t.Errorf("pending grew to %d entries", len(e.pending))
	}
	if e.Result().Coverage() > 0.01 {
		t.Errorf("coverage = %.3f on non-repeating stream", e.Result().Coverage())
	}
}

func TestDefaultWindow(t *testing.T) {
	e := New(g(), prefetch.None{}, 0)
	if e.window != 512 {
		t.Errorf("default window = %d", e.window)
	}
}

// sharedScratch predicts the next block from OnMiss and the block after it
// from OnAccess, returning both batches in one scratch array, as the
// Prefetcher contract allows: a batch is valid only until the next call.
type sharedScratch struct {
	prefetch.None
	scratch [2]prefetch.Request
}

func (p *sharedScratch) OnMiss(m trace.Miss) []prefetch.Request {
	p.scratch[0] = prefetch.Request{Addr: m.Addr + 32}
	return p.scratch[:1]
}

func (p *sharedScratch) OnAccess(a, _ addr.Addr, _ int64, _ bool) []prefetch.Request {
	p.scratch[0] = prefetch.Request{Addr: a + 64}
	return p.scratch[:1]
}

// TestBatchConsumedBeforeNextCall: the OnMiss batch counts even though
// OnAccess reuses its array.
func TestBatchConsumedBeforeNextCall(t *testing.T) {
	geo := g()
	misses := []trace.Miss{trace.MakeMiss(geo, 0, 0, 0, false), trace.MakeMiss(geo, 32, 0, 1, false)}
	r := Replay(geo, &sharedScratch{}, misses, 16)
	if r.Predictions != 4 || r.Covered != 1 {
		t.Errorf("result = %+v, want 4 predictions and the OnMiss one covering the second miss", r)
	}
}
