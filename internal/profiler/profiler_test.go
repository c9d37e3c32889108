package profiler

import (
	"math"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

func g() addr.Geometry { return addr.MustGeometry(32*1024, 1, 32) }

// obs feeds the profiler a miss composed from (tag, set).
func obs(p *Profiler, tag uint64, set uint32) {
	p.Observe(trace.MakeMiss(p.geom, p.geom.Compose(tag, set), 0, 0, false))
}

func close(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEmptySummary(t *testing.T) {
	p := New(g(), 3)
	s := p.Summarize()
	if s.Misses != 0 || s.UniqueTags != 0 || s.SeqRatio != 0 || s.StridedFrac != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSeqLenClamping(t *testing.T) {
	// n misses in one set complete n-k+1 windows of k tags.
	const n = 20
	windows := func(seqLen int) uint64 {
		p := New(g(), seqLen)
		for tag := uint64(0); tag < n; tag++ {
			obs(p, tag, 0)
		}
		return p.Summarize().SeqWindows
	}
	if w := windows(0); w != n-2+1 {
		t.Errorf("low clamp failed: %d windows", w)
	}
	if w := windows(99); w != n-MaxSeqLen+1 {
		t.Errorf("high clamp failed: %d windows", w)
	}
	if w := windows(3); w != n-3+1 {
		t.Errorf("normal value altered: %d windows", w)
	}
}

func TestTagAndAddrCounts(t *testing.T) {
	p := New(g(), 3)
	// Tag 5 in sets 0 and 1; tag 7 in set 0. 4 misses total.
	obs(p, 5, 0)
	obs(p, 5, 1)
	obs(p, 5, 0)
	obs(p, 7, 0)
	s := p.Summarize()
	if s.Misses != 4 {
		t.Errorf("misses = %d", s.Misses)
	}
	if s.UniqueTags != 2 {
		t.Errorf("unique tags = %d", s.UniqueTags)
	}
	if !close(s.TagRecurrence, 2) {
		t.Errorf("tag recurrence = %v", s.TagRecurrence)
	}
	// Unique block addresses: (5,0), (5,1), (7,0) -> 3.
	if s.UniqueAddrs != 3 {
		t.Errorf("unique addrs = %d", s.UniqueAddrs)
	}
	if !close(s.AddrRecurrence, 4.0/3) {
		t.Errorf("addr recurrence = %v", s.AddrRecurrence)
	}
	// Sets per tag: tag5 in 2 sets, tag7 in 1 -> (2+1)/2 = 1.5.
	if !close(s.SetsPerTag, 1.5) {
		t.Errorf("sets per tag = %v", s.SetsPerTag)
	}
	// Per-(tag,set) recurrence: 4 misses over 3 (tag,set) pairs.
	if !close(s.TagPerSetRecur, 4.0/3) {
		t.Errorf("per-set recurrence = %v", s.TagPerSetRecur)
	}
}

func TestSequenceFormationPerSet(t *testing.T) {
	p := New(g(), 3)
	// Set 0 sees tags 1,2,3,1,2,3 -> windows (1,2,3),(2,3,1),(3,1,2),(1,2,3).
	for _, tag := range []uint64{1, 2, 3, 1, 2, 3} {
		obs(p, tag, 0)
	}
	s := p.Summarize()
	if s.SeqWindows != 4 {
		t.Errorf("windows = %d, want 4", s.SeqWindows)
	}
	if s.UniqueSeqs != 3 {
		t.Errorf("unique seqs = %d, want 3", s.UniqueSeqs)
	}
	if !close(s.SeqRecurrence, 4.0/3) {
		t.Errorf("seq recurrence = %v", s.SeqRecurrence)
	}
}

func TestSequencesDoNotCrossSets(t *testing.T) {
	p := New(g(), 3)
	// Interleave two sets; each set alone has <3 misses, so no windows.
	obs(p, 1, 0)
	obs(p, 2, 1)
	obs(p, 3, 0)
	obs(p, 4, 1)
	if s := p.Summarize(); s.SeqWindows != 0 {
		t.Errorf("windows = %d, want 0 (sequences must be per-set)", s.SeqWindows)
	}
}

func TestSeqSpreadAcrossSets(t *testing.T) {
	p := New(g(), 3)
	// The same sequence (1,2,3) appears in sets 0, 1, 2.
	for set := uint32(0); set < 3; set++ {
		obs(p, 1, set)
		obs(p, 2, set)
		obs(p, 3, set)
	}
	s := p.Summarize()
	if s.UniqueSeqs != 1 {
		t.Fatalf("unique seqs = %d", s.UniqueSeqs)
	}
	if !close(s.SetsPerSeq, 3) {
		t.Errorf("sets per seq = %v, want 3", s.SetsPerSeq)
	}
	if !close(s.SeqPerSetRecur, 1) {
		t.Errorf("per-set seq recurrence = %v, want 1", s.SeqPerSetRecur)
	}
}

func TestSeqRatio(t *testing.T) {
	p := New(g(), 3)
	// 2 unique tags, upper limit 8 sequences; we create 2 unique windows.
	for _, tag := range []uint64{1, 2, 1, 2} {
		obs(p, tag, 0)
	}
	s := p.Summarize()
	if s.UniqueSeqs != 2 { // (1,2,1) and (2,1,2)
		t.Fatalf("unique seqs = %d", s.UniqueSeqs)
	}
	if !close(s.SeqRatio, 2.0/8) {
		t.Errorf("seq ratio = %v, want 0.25", s.SeqRatio)
	}
}

func TestStridedDetection(t *testing.T) {
	if !isStrided([]uint64{1, 2, 3}) {
		t.Error("ascending unit stride not detected")
	}
	if !isStrided([]uint64{10, 7, 4}) {
		t.Error("descending stride not detected")
	}
	if isStrided([]uint64{5, 5, 5}) {
		t.Error("zero stride must not count")
	}
	if isStrided([]uint64{1, 2, 4}) {
		t.Error("non-constant stride detected as strided")
	}
	if isStrided([]uint64{9}) {
		t.Error("single tag cannot be strided")
	}
}

func TestStridedFraction(t *testing.T) {
	p := New(g(), 3)
	// Set 0: strided tags 10,11,12,13 -> windows (10,11,12),(11,12,13): both strided.
	for _, tag := range []uint64{10, 11, 12, 13} {
		obs(p, tag, 0)
	}
	// Set 1: non-strided 1,5,2,9 -> 2 windows, none strided.
	for _, tag := range []uint64{1, 5, 2, 9} {
		obs(p, tag, 1)
	}
	s := p.Summarize()
	if s.SeqWindows != 4 {
		t.Fatalf("windows = %d", s.SeqWindows)
	}
	if !close(s.StridedFrac, 0.5) {
		t.Errorf("strided frac = %v, want 0.5", s.StridedFrac)
	}
	if s.StridedUniqueFrac <= 0 || s.StridedUniqueFrac > 1 {
		t.Errorf("strided unique frac = %v", s.StridedUniqueFrac)
	}
}

func TestSeqLen2(t *testing.T) {
	p := New(g(), 2)
	obs(p, 1, 0)
	obs(p, 2, 0)
	obs(p, 3, 0)
	s := p.Summarize()
	if s.SeqWindows != 2 { // (1,2), (2,3)
		t.Errorf("windows = %d, want 2", s.SeqWindows)
	}
	if s.UniqueSeqs != 2 {
		t.Errorf("unique = %d, want 2", s.UniqueSeqs)
	}
}

func TestSweepProducesSharedSequences(t *testing.T) {
	// A linear sweep of 4 passes over a 256 KB region (8 tags) must yield
	// per-set sequences that appear in every set: the across-set sharing
	// TCP-8K exploits (Section 3.2).
	geo := g()
	p := New(geo, 3)
	for pass := 0; pass < 4; pass++ {
		for blk := uint64(0); blk < 8*1024; blk++ { // 8K blocks = 256KB
			p.Observe(trace.MakeMiss(geo, addr.Addr(blk*32), 0, 0, false))
		}
	}
	s := p.Summarize()
	if s.UniqueTags != 8 {
		t.Fatalf("unique tags = %d, want 8", s.UniqueTags)
	}
	// Each set sees tags 0..7 repeatedly; sequences like (t,t+1,t+2) occur
	// in all 1024 sets.
	if s.SetsPerSeq < 1000 {
		t.Errorf("sets per seq = %v, want near 1024", s.SetsPerSeq)
	}
	// All windows strided within a pass (wrap windows break stride).
	if s.StridedFrac < 0.7 {
		t.Errorf("strided frac = %v, want high for pure sweep", s.StridedFrac)
	}
}
