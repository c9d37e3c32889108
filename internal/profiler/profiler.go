// Package profiler computes the tag/address/sequence locality statistics of
// Section 3 of the paper from an L1 data-cache miss stream: unique tags and
// their recurrence (Figure 2), unique block addresses and their recurrence
// (Figure 3), the intra-set/across-set split of tag recurrences (Figure 4),
// the population and repetitiveness of per-set k-tag sequences (Figures
// 5-7), and the fraction of strided tag sequences (Figure 15).
package profiler

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/trace"
)

// Profiler accumulates locality statistics over a miss stream.
// Construct with New; feed with Observe; read with Summarize.
type Profiler struct {
	geom   addr.Geometry
	seqLen int

	misses uint64

	tagCount  map[uint64]uint64
	tagSet    map[tagSetKey]uint64
	addrCount map[uint64]uint64

	hist     [][]uint64 // per-set tag history, most recent last
	seqTotal uint64     // number of complete k-tag windows observed
	seqCount map[seqKey]uint64
	seqSet   map[seqSetKey]uint64
	strided  uint64 // strided windows observed (dynamic count)
}

type tagSetKey struct {
	tag uint64
	set uint32
}

// seqKey holds up to 4 tags; seqLen is capped accordingly.
type seqKey [4]uint64

type seqSetKey struct {
	seq seqKey
	set uint32
}

// MaxSeqLen is the largest supported sequence length.
const MaxSeqLen = 4

// New creates a profiler for miss streams under geometry g, tracking
// per-set tag sequences of length seqLen (the paper uses 3).
// seqLen is clamped to [2, MaxSeqLen].
func New(g addr.Geometry, seqLen int) *Profiler {
	if seqLen < 2 {
		seqLen = 2
	}
	if seqLen > MaxSeqLen {
		seqLen = MaxSeqLen
	}
	return &Profiler{
		geom:      g,
		seqLen:    seqLen,
		tagCount:  make(map[uint64]uint64),
		tagSet:    make(map[tagSetKey]uint64),
		addrCount: make(map[uint64]uint64),
		hist:      make([][]uint64, g.Sets()),
		seqCount:  make(map[seqKey]uint64),
		seqSet:    make(map[seqSetKey]uint64),
	}
}

// Observe records one L1 miss.
func (p *Profiler) Observe(m trace.Miss) {
	p.misses++
	p.tagCount[m.Tag]++
	p.tagSet[tagSetKey{m.Tag, m.Index}]++
	p.addrCount[p.geom.BlockID(m.Addr)]++

	h := p.hist[m.Index]
	h = append(h, m.Tag)
	if len(h) > p.seqLen {
		copy(h, h[1:])
		h = h[:p.seqLen]
	}
	p.hist[m.Index] = h
	if len(h) == p.seqLen {
		var k seqKey
		copy(k[:], h)
		p.seqTotal++
		p.seqCount[k]++
		p.seqSet[seqSetKey{k, m.Index}]++
		if isStrided(h) {
			p.strided++
		}
	}
}

// isStrided reports whether the tags exhibit a constant non-zero stride
// (the paper's "strided tag sequence", Section 6).
func isStrided(tags []uint64) bool {
	if len(tags) < 2 {
		return false
	}
	d := int64(tags[1]) - int64(tags[0])
	if d == 0 {
		return false
	}
	for i := 2; i < len(tags); i++ {
		if int64(tags[i])-int64(tags[i-1]) != d {
			return false
		}
	}
	return true
}

// Summary holds every statistic of Section 3 for one miss stream.
type Summary struct {
	Misses uint64

	// Figure 2: tags in the miss stream.
	UniqueTags    uint64
	TagRecurrence float64 // mean appearances per unique tag

	// Figure 3: block addresses in the miss stream.
	UniqueAddrs    uint64
	AddrRecurrence float64

	// Figure 4: intra-set vs across-set split of tag recurrences.
	SetsPerTag     float64 // mean number of sets each tag appears in
	TagPerSetRecur float64 // mean appearances of a tag within one set

	// Figures 5-6: per-set k-tag sequences.
	SeqWindows    uint64 // complete windows observed
	UniqueSeqs    uint64
	SeqRatio      float64 // unique sequences / uniqueTags^k (Figure 5)
	SeqRecurrence float64 // mean appearances per unique sequence

	// Figure 7: sequence spread across sets.
	SetsPerSeq     float64
	SeqPerSetRecur float64

	// Figure 15: strided sequences.
	StridedFrac       float64 // fraction of observed windows that are strided
	StridedUniqueFrac float64 // fraction of unique sequences that are strided
}

// Summarize computes the summary for everything observed so far.
func (p *Profiler) Summarize() Summary {
	s := Summary{
		Misses:      p.misses,
		UniqueTags:  uint64(len(p.tagCount)),
		UniqueAddrs: uint64(len(p.addrCount)),
		SeqWindows:  p.seqTotal,
		UniqueSeqs:  uint64(len(p.seqCount)),
	}
	if s.UniqueTags > 0 {
		s.TagRecurrence = float64(p.misses) / float64(s.UniqueTags)
	}
	if s.UniqueAddrs > 0 {
		s.AddrRecurrence = float64(p.misses) / float64(s.UniqueAddrs)
	}
	if s.UniqueTags > 0 {
		// sets per tag: distinct (tag,set) pairs / distinct tags.
		s.SetsPerTag = float64(len(p.tagSet)) / float64(s.UniqueTags)
	}
	if n := len(p.tagSet); n > 0 {
		s.TagPerSetRecur = float64(p.misses) / float64(n)
	}
	if s.UniqueTags > 0 {
		den := float64(s.UniqueTags)
		for i := 1; i < p.seqLen; i++ {
			den *= float64(s.UniqueTags)
		}
		s.SeqRatio = float64(s.UniqueSeqs) / den
	}
	if s.UniqueSeqs > 0 {
		s.SeqRecurrence = float64(p.seqTotal) / float64(s.UniqueSeqs)
		s.SetsPerSeq = float64(len(p.seqSet)) / float64(s.UniqueSeqs)
	}
	if n := len(p.seqSet); n > 0 {
		s.SeqPerSetRecur = float64(p.seqTotal) / float64(n)
	}
	if p.seqTotal > 0 {
		s.StridedFrac = float64(p.strided) / float64(p.seqTotal)
	}
	if s.UniqueSeqs > 0 {
		var su uint64
		// Map order cannot matter: counting the keys that satisfy a per-key
		// predicate is an order-independent reduction.
		for k := range p.seqCount {
			if isStrided(k[:p.seqLen]) {
				su++
			}
		}
		s.StridedUniqueFrac = float64(su) / float64(s.UniqueSeqs)
	}
	return s
}
