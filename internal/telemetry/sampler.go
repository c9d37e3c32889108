package telemetry

// Sampler snapshots a set of probes every N cycles, producing time series
// that can be plotted over a run (IPC, miss rate, coverage/accuracy...).
// Phase boundaries (warmup end, measurement start) are recorded alongside
// so consumers can window the series.
//
// A Sampler is driven synchronously from the core's commit loop and is NOT
// safe for concurrent use; it trades locking for a two-instruction due
// check on the hot path.
type Sampler struct {
	every int64 // sampling-interval configuration fixed at construction
	next  int64

	probes []samplerProbe

	cycles []int64
	instrs []uint64
	values [][]float64 // values[p][i] = probe p at sample i

	phases    []Phase
	onSample  func(cycle int64, instructions uint64, values []float64) // host-side callback wiring; not serialisable
	maxSample int                                                      // capacity fixed at construction; bounds the decoded samples
	truncated uint64
	scratch   []float64 // scratch buffer, dead between samples
}

type samplerProbe struct {
	name     string
	value    func() float64 // instantaneous, nil for ratio probes
	num, den func() float64 // ratio probes: delta(num)/delta(den) per window
	prevNum  float64
	prevDen  float64
}

// Phase marks the start of a named execution phase (warmup, measure).
type Phase struct {
	Name         string `json:"name"`
	Cycle        int64  `json:"cycle"`
	Instructions uint64 `json:"instructions"`
}

// TimeSeries is one probe's sampled values over a run.
type TimeSeries struct {
	Name   string    `json:"name"`
	Cycles []int64   `json:"cycles"`
	Values []float64 `json:"values"`
}

// NewSampler creates a sampler firing every everyCycles cycles (minimum 1).
// At most maxSamples samples are kept (default 1<<16 when <= 0); further
// samples are dropped and counted, bounding memory on long runs.
func NewSampler(everyCycles int64, maxSamples int) *Sampler {
	if everyCycles < 1 {
		everyCycles = 1
	}
	if maxSamples <= 0 {
		maxSamples = 1 << 16
	}
	return &Sampler{every: everyCycles, next: everyCycles, maxSample: maxSamples}
}

// Value registers an instantaneous probe sampled at each tick.
func (s *Sampler) Value(name string, f func() float64) {
	s.probes = append(s.probes, samplerProbe{name: name, value: f})
	s.values = append(s.values, nil)
}

// Ratio registers a windowed probe: each sample records
// delta(num)/delta(den) over the sampling window (0 when den does not
// advance). MarkPhase re-baselines the window so phases do not bleed into
// each other.
func (s *Sampler) Ratio(name string, num, den func() float64) {
	s.probes = append(s.probes, samplerProbe{name: name, num: num, den: den,
		prevNum: num(), prevDen: den()})
	s.values = append(s.values, nil)
}

// OnSample installs a callback invoked after every recorded sample with
// the sample cycle, retired-instruction count, and probe values in
// registration order. Used for progress heartbeats.
func (s *Sampler) OnSample(fn func(cycle int64, instructions uint64, values []float64)) {
	s.onSample = fn
}

// Due reports whether a sample should be taken at cycle. It is called once
// per committed instruction, so it is a single comparison.
//
// The when-off path of sampling; Sample is the slow path.
func (s *Sampler) Due(cycle int64) bool { return cycle >= s.next }

// Sample records one sample at the given cycle. Callers gate on Due.
func (s *Sampler) Sample(cycle int64, instructions uint64) {
	s.next = cycle + s.every
	if len(s.cycles) >= s.maxSample {
		s.truncated++
		return
	}
	s.cycles = append(s.cycles, cycle)
	s.instrs = append(s.instrs, instructions)
	s.scratch = s.scratch[:0]
	for i := range s.probes {
		p := &s.probes[i]
		var v float64
		if p.value != nil {
			v = p.value()
		} else {
			num, den := p.num(), p.den()
			if dd := den - p.prevDen; dd != 0 {
				v = (num - p.prevNum) / dd
			}
			p.prevNum, p.prevDen = num, den
		}
		s.values[i] = append(s.values[i], v)
		s.scratch = append(s.scratch, v)
	}
	if s.onSample != nil {
		s.onSample(cycle, instructions, s.scratch)
	}
}

// MarkPhase records a phase boundary at the given cycle and re-baselines
// every windowed probe, so the first sample of the new phase measures only
// activity inside that phase (warmup traffic cannot bleed into measured
// windows).
func (s *Sampler) MarkPhase(name string, cycle int64, instructions uint64) {
	s.phases = append(s.phases, Phase{Name: name, Cycle: cycle, Instructions: instructions})
	for i := range s.probes {
		p := &s.probes[i]
		if p.value == nil {
			p.prevNum, p.prevDen = p.num(), p.den()
		}
	}
}

// Phases returns the recorded phase boundaries in order.
func (s *Sampler) Phases() []Phase { return s.phases }

// Truncated returns the number of samples dropped after maxSamples.
func (s *Sampler) Truncated() uint64 { return s.truncated }

// Series returns one TimeSeries per probe, in registration order, plus the
// built-in "cpu.instructions_retired" series. All series share the same
// sample cycles.
func (s *Sampler) Series() []TimeSeries {
	out := make([]TimeSeries, 0, len(s.probes)+1)
	instr := make([]float64, len(s.instrs))
	for i, n := range s.instrs {
		instr[i] = float64(n)
	}
	out = append(out, TimeSeries{Name: "cpu.instructions_retired", Cycles: s.cycles, Values: instr})
	for i, p := range s.probes {
		out = append(out, TimeSeries{Name: p.name, Cycles: s.cycles, Values: s.values[i]})
	}
	return out
}

// CounterValue adapts a Counter for use as a sampler probe input.
func CounterValue(c *Counter) func() float64 {
	return func() float64 { return float64(c.Value()) }
}
