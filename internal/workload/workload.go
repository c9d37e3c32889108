// Package workload synthesizes deterministic instruction streams that stand
// in for the SPEC CPU2000 binaries the paper simulates.
//
// Each benchmark model is a Spec: a loop body of BodyLen instruction slots
// whose class mix (loads/stores/branches/int/fp) matches the benchmark's
// character, where every memory slot is bound to one address Stream (an
// array sweep, a tiled kernel, a pointer chase over a fixed permutation, a
// uniform random scatter, a same-set column walk, or an L1-resident hot
// loop). The body repeats forever, like the loop nests that dominate
// SPEC2000 execution. Because the body and the slot-to-stream binding are
// fixed at construction, each load PC sees a regular address pattern (what stride
// prefetchers and DBCP key on) and each L1 set sees repetitive per-set tag
// sequences (what TCP keys on) — exactly the structure Section 3 of the
// paper measures in real miss traces.
//
// The models are calibrated against the paper's own characterisation data
// (Figures 1-7 and 15); see spec2000.go and DESIGN.md §6.
package workload

import (
	"fmt"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/xrand"
)

// OpClass is the functional-unit class of an instruction.
type OpClass uint8

// Instruction classes, mirroring the FU mix of Table 1.
const (
	IntALU OpClass = iota
	IntMult
	FPALU
	FPMult
	Load
	Store
	Branch
	numClasses
)

// String returns the class mnemonic.
func (c OpClass) String() string {
	switch c {
	case IntALU:
		return "intalu"
	case IntMult:
		return "intmult"
	case FPALU:
		return "fpalu"
	case FPMult:
		return "fpmult"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	}
	return fmt.Sprintf("opclass(%d)", uint8(c))
}

// IsMem reports whether the class accesses data memory.
func (c OpClass) IsMem() bool { return c == Load || c == Store }

// Inst is one dynamic instruction handed to the core.
type Inst struct {
	Class OpClass
	PC    uint64
	Addr  uint64 // byte address for Load/Store
	Taken bool   // resolved direction for Branch
	Dep1  int32  // backward distance (in dynamic instructions) to a producer; 0 = none
	Dep2  int32
}

// Generator produces an endless dynamic instruction stream. Its position
// in the stream is machine state, so every generator is a
// checkpoint.Snapshotter.
type Generator interface {
	checkpoint.Snapshotter
	// Next fills in the next dynamic instruction.
	Next(*Inst)
}

// StreamKind selects an address-pattern component.
type StreamKind uint8

// Stream kinds; see streams.go for semantics.
const (
	SweepKind  StreamKind = iota // sequential walk over a footprint
	ChaseKind                    // pointer chase over a fixed permutation
	RandomKind                   // uniform random blocks within a footprint
	ColumnKind                   // same-set column walk (strided tag sequences)
	HotKind                      // small L1-resident loop
)

// StreamSpec configures one address stream of a benchmark model.
type StreamSpec struct {
	Kind      StreamKind
	Weight    int    // relative share of the body's memory slots (>=1)
	Footprint uint64 // bytes touched by the stream
	Stride    uint64 // sweep stride in bytes (default 8)
	Block     uint64 // chase/random granularity in bytes (default 64)
	RowStride uint64 // column walk: distance between consecutive accesses (default 32 KiB)
	Rows      uint64 // column walk: accesses per column (default 64)
	// Every throttles the stream: it advances only on every Every-th
	// activation and re-touches its previous address otherwise (an L1 hit
	// in steady state). Weight-1 streams with Every > 1 model the small,
	// sustained far-memory "leak" that gives mid-tier benchmarks their
	// modest ideal-L2 potential in Figure 1. Default 1 (no throttling).
	Every int
}

// Spec is a complete benchmark model.
type Spec struct {
	Name string

	BodyLen    int     // instruction slots per loop body (default 48)
	MemFrac    float64 // fraction of slots that are loads+stores
	StoreFrac  float64 // fraction of memory slots that are stores
	BranchFrac float64 // fraction of slots that are branches (>=1 slot)
	FPFrac     float64 // fraction of compute slots that are floating point
	MultFrac   float64 // fraction of compute slots that are multiplies

	DepProb     float64 // probability a compute slot depends on a nearby earlier slot
	LoadUseProb float64 // probability a compute slot consumes the most recent load

	BranchPredictability float64 // fraction of branch outcomes following a learnable pattern

	Streams []StreamSpec
}

// New builds a Generator from the spec, seeded deterministically.
// It panics if the spec has no streams or a non-positive memory fraction,
// since such a model exercises nothing the simulator measures.
func New(spec Spec, seed uint64) Generator {
	if len(spec.Streams) == 0 {
		panic("workload: spec needs at least one stream")
	}
	if spec.MemFrac <= 0 {
		panic("workload: spec needs MemFrac > 0")
	}
	s := &synth{spec: withDefaults(spec)}
	s.rng = xrand.New(seed ^ hashName(s.spec.Name))
	s.buildStreams()
	s.buildBody()
	s.lastOf = make([]uint64, len(s.streams))
	s.depP = xrand.NewProb(s.spec.DepProb)
	s.loadUseP = xrand.NewProb(s.spec.LoadUseProb)
	s.predictableP = xrand.NewProb(s.spec.BranchPredictability)
	s.coinP = xrand.NewProb(0.5)
	return s
}

// withDefaults fills in defaulted fields on a copy: the streams are copied
// before defaulting, since callers share one Spec (and its Streams backing
// array) across concurrent New calls.
func withDefaults(spec Spec) Spec {
	spec.Streams = append([]StreamSpec(nil), spec.Streams...)
	if spec.BodyLen <= 0 {
		spec.BodyLen = 48
	}
	if spec.BodyLen < 8 {
		spec.BodyLen = 8
	}
	for i := range spec.Streams {
		st := &spec.Streams[i]
		if st.Weight <= 0 {
			st.Weight = 1
		}
		if st.Stride == 0 {
			st.Stride = 8
		}
		if st.Block == 0 {
			st.Block = 64
		}
		if st.RowStride == 0 {
			st.RowStride = 32 * 1024
		}
		if st.Rows == 0 {
			st.Rows = 64
		}
		if st.Footprint == 0 {
			st.Footprint = 1 << 20
		}
		if st.Every <= 0 {
			st.Every = 1
		}
	}
	return spec
}

// slot is one position in the synthesized loop body.
type slot struct {
	class     OpClass
	pc        uint64
	streamIdx int // memory slots: which stream feeds this slot
	branchIdx int // branch slots: which branch-pattern state drives it
}

type branchPattern struct {
	period int  // taken except every period-th iteration
	count  int  // iterations so far
	loop   bool // the body-closing loop branch: always taken
}

type synth struct {
	spec    Spec
	rng     *xrand.Rand
	body    []slot // static structure rebuilt deterministically by New from the spec and seed; bounds the decoded cursor
	streams []stream
	branch  []branchPattern

	slotIdx  int
	icount   uint64 // dynamic instructions emitted
	lastLoad uint64 // icount of the most recent load (0 = none yet)
	lastOf   []uint64

	// The spec's per-instruction probabilities, prepared once by New.
	depP, loadUseP, predictableP, coinP xrand.Prob // derived from the spec by New
}

func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

func (s *synth) buildStreams() {
	s.streams = make([]stream, len(s.spec.Streams))
	for i, ss := range s.spec.Streams {
		base := uint64(1)<<33 + uint64(i)<<28 // disjoint address regions per stream
		s.streams[i] = newStream(ss, base, xrand.New(s.rng.Uint64()))
	}
}

// buildBody lays out a deterministic loop body honouring the class mix.
func (s *synth) buildBody() {
	n := s.spec.BodyLen
	nMem := clampInt(int(float64(n)*s.spec.MemFrac+0.5), 1, n-2)
	nBr := clampInt(int(float64(n)*s.spec.BranchFrac+0.5), 1, n-nMem-1)
	nStore := clampInt(int(float64(nMem)*s.spec.StoreFrac+0.5), 0, nMem)
	nCompute := n - nMem - nBr
	nFP := clampInt(int(float64(nCompute)*s.spec.FPFrac+0.5), 0, nCompute)
	nMult := clampInt(int(float64(nCompute)*s.spec.MultFrac+0.5), 0, nCompute)

	classes := make([]OpClass, 0, n)
	for i := 0; i < nMem-nStore; i++ {
		classes = append(classes, Load)
	}
	for i := 0; i < nStore; i++ {
		classes = append(classes, Store)
	}
	for i := 0; i < nBr-1; i++ {
		classes = append(classes, Branch)
	}
	for i := 0; i < nCompute; i++ {
		switch {
		case i < nMult && i%2 == 0 && nFP > 0:
			classes = append(classes, FPMult)
		case i < nMult:
			classes = append(classes, IntMult)
		case i < nMult+nFP:
			classes = append(classes, FPALU)
		default:
			classes = append(classes, IntALU)
		}
	}
	// Deterministic shuffle so loads and compute interleave like a real
	// loop body rather than clustering.
	xrand.Shuffle(s.rng, classes)
	classes = append(classes, Branch) // the loop-closing branch

	// Bind memory slots to streams proportional to weight using largest-
	// remainder apportionment: every stream keeps at least one slot when
	// there is room, and the slots of different streams interleave within
	// one iteration (a[i], b[i], c[i]...), like a real loop body.
	memAssign := apportion(nMem, s.spec.Streams)

	s.body = make([]slot, len(classes))
	s.branch = s.branch[:0]
	pcBase := uint64(0x400000) + (hashName(s.spec.Name) & 0xFFFF << 8)
	mi := 0
	for i, c := range classes {
		sl := slot{class: c, pc: pcBase + uint64(i)*4, streamIdx: -1, branchIdx: -1}
		switch {
		case c.IsMem():
			sl.streamIdx = memAssign[mi]
			mi++
		case c == Branch:
			bp := branchPattern{period: 4 + s.rng.Intn(29)}
			if i == len(classes)-1 {
				bp.loop = true
			}
			sl.branchIdx = len(s.branch)
			s.branch = append(s.branch, bp)
		}
		s.body[i] = sl
	}
}

// apportion distributes n memory slots over the streams proportionally to
// their weights (largest remainder), guaranteeing each stream at least one
// slot when n >= len(streams), then interleaves the assignment.
func apportion(n int, streams []StreamSpec) []int {
	k := len(streams)
	counts := make([]int, k)
	totalW := 0
	for _, ss := range streams {
		totalW += ss.Weight
	}
	assigned := 0
	rems := make([]float64, k)
	for i, ss := range streams {
		exact := float64(n) * float64(ss.Weight) / float64(totalW)
		counts[i] = int(exact)
		rems[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < n {
		best := 0
		for i := 1; i < k; i++ {
			if rems[i] > rems[best] {
				best = i
			}
		}
		counts[best]++
		rems[best] = -1
		assigned++
	}
	// Guarantee representation: give zero-count streams a slot taken from
	// the largest allocation.
	if n >= k {
		for i := range counts {
			if counts[i] == 0 {
				big := 0
				for j := range counts {
					if counts[j] > counts[big] {
						big = j
					}
				}
				if counts[big] > 1 {
					counts[big]--
					counts[i]++
				}
			}
		}
	}
	// Interleave: repeatedly take one slot from each stream that still has
	// some left.
	out := make([]int, 0, n)
	remaining := append([]int(nil), counts...)
	for len(out) < n {
		for i := 0; i < k && len(out) < n; i++ {
			if remaining[i] > 0 {
				remaining[i]--
				out = append(out, i)
			}
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Next implements Generator.
func (s *synth) Next(inst *Inst) {
	sl := &s.body[s.slotIdx]
	s.slotIdx++
	if s.slotIdx == len(s.body) {
		s.slotIdx = 0
	}
	s.icount++

	inst.Class = sl.class
	inst.PC = sl.pc
	inst.Addr = 0
	inst.Taken = false
	inst.Dep1 = 0
	inst.Dep2 = 0

	switch {
	case sl.class.IsMem():
		st := s.streams[sl.streamIdx]
		a, chained := st.next()
		inst.Addr = a
		if chained && s.lastOf[sl.streamIdx] != 0 {
			// Pointer chase: this access's address was produced by the
			// stream's previous access (serialising dependence).
			inst.Dep1 = dist(s.icount, s.lastOf[sl.streamIdx])
		}
		s.lastOf[sl.streamIdx] = s.icount
		if sl.class == Load {
			s.lastLoad = s.icount
		}
	case sl.class == Branch:
		bp := &s.branch[sl.branchIdx]
		if bp.loop {
			inst.Taken = true
		} else {
			bp.count++
			patterned := bp.count%bp.period != 0
			if s.rng.Hit(s.predictableP) {
				inst.Taken = patterned
			} else {
				inst.Taken = s.rng.Hit(s.coinP)
			}
		}
		if s.lastLoad != 0 && s.rng.Hit(s.loadUseP) {
			inst.Dep1 = dist(s.icount, s.lastLoad)
		}
	default: // compute
		if s.rng.Hit(s.depP) {
			back := 1 + s.rng.Intn(4)
			if uint64(back) < s.icount {
				inst.Dep1 = int32(back)
			}
		}
		if s.lastLoad != 0 && s.rng.Hit(s.loadUseP) {
			inst.Dep2 = dist(s.icount, s.lastLoad)
		}
	}
}

func dist(now, then uint64) int32 {
	d := now - then
	if d > 1<<30 {
		return 0
	}
	return int32(d)
}
