package sim

import (
	"fmt"
	"slices"

	"tagprefetch/internal/cache"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/critical"
	"tagprefetch/internal/deadblock"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// Machine is one fully-assembled simulated system — core, memory hierarchy,
// prefetcher and workload generator — that can be advanced incrementally
// with RunTo, checkpointed at any instruction boundary, restored, and
// finished into a Result. Restoring a checkpoint into a machine built from
// the same spec, factory and config and continuing is bit-identical to an
// uninterrupted run: the per-instruction loop order is preserved across the
// split and every component serialises its complete dynamic state.
type Machine struct {
	spec   workload.Spec
	f      Factory        // construction wiring; it built the parked components, it is not serialisable state
	cfg    Config         // normalized
	memCfg memsys.Config  // normalized, including the hybrid prefetch bus
	tel    *telemetry.Run // set by Observe; its sampler, when present, is part of the image

	mem  *memsys.MemSys
	core *cpu.Core
	gen  workload.Generator
	pf   prefetch.Prefetcher // coded through the memsys walk once attached

	// The scheme's components, attached at construction — or, during a
	// baseline warmup (Config.BaselineWarmup), parked and attached at the
	// warmup/measure boundary, so every grid config shares one
	// bit-identical warm state for warm-fork sweeps.
	// A post-boundary image attaches them on decode, before the memsys
	// walk codes them.
	parked       bool
	parkedAtL2   bool
	parkedDbp    *deadblock.Predictor
	parkedRetire func(pc uint64, critical bool)

	memAtBoundary              memsys.Stats
	l1AtBoundary, l2AtBoundary cache.Stats
}

// NewMachine assembles a machine for the given workload spec, prefetcher
// factory and config. The config is validated first; construction never
// panics on bad numeric fields.
func NewMachine(spec workload.Spec, f Factory, cfg Config) (*Machine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	memCfg := cfg.Mem.WithDefaults()

	buildGeom := memCfg.L1D
	if f.AtL2 {
		buildGeom = memCfg.L2
	}
	pf, hybrid := f.Build(buildGeom)
	if pf == nil {
		pf = prefetch.None{}
	}
	if hybrid {
		memCfg.PrefetchBus = true
	}
	var retire func(pc uint64, critical bool)
	if f.CriticalFilter {
		pred := critical.New(12)
		pf = prefetch.NewCriticalFiltered(pf, pred)
		retire = pred.Train
	}
	var dbp *deadblock.Predictor
	if hybrid {
		dbp = deadblock.New(deadblock.Config{Geom: memCfg.L1D})
	}

	m := &Machine{spec: spec, f: f, cfg: cfg, memCfg: memCfg, pf: pf,
		parked: true, parkedAtL2: f.AtL2, parkedDbp: dbp, parkedRetire: retire}
	m.mem = memsys.New(memCfg, prefetch.None{})
	m.core = cpu.New(cfg.CPU, m.mem)
	m.gen = workload.New(spec, cfg.Seed)
	// Outside a baseline warmup the scheme attaches now. Within one, the
	// warmup runs under the no-prefetch baseline and the scheme attaches at
	// the boundary: a cold run in this mode is bit-identical to restoring a
	// baseline-warmed checkpoint and attaching the scheme, which is what
	// makes forked sweeps exact.
	if !cfg.BaselineWarmup || cfg.Warmup == 0 {
		m.attachParked()
	}
	return m, nil
}

// Observe directs the machine's observability to tel: every component
// registers its counters into tel.Registry (memsys under "memsys", the core
// under "cpu", the prefetcher under "memsys.prefetch"), discrete events go
// to tel.Tracer, and — when tel.Sampler is set — the core drives
// cycle-sampled time series for IPC, L1 miss rate and prefetch
// coverage/accuracy, with warmup/measure phase boundaries recorded.
// Call it at most once, before the first RunTo or RestoreImage; a sampler is
// part of the checkpoint image, so a saver and its restorer must agree on
// one. A nil tel observes nothing, and an unobserved machine pays nothing.
func (m *Machine) Observe(tel *telemetry.Run) {
	if tel == nil {
		return
	}
	if m.tel != nil || m.core.Done() != 0 {
		panic("sim: Observe after the machine started or was already observed")
	}
	m.tel = tel
	m.mem.AttachTelemetry(tel.Registry.Sub("memsys"), tel.Tracer)
	m.core.AttachTelemetry(tel.Registry.Sub("cpu"), tel.Tracer)
	m.core.OnPublish(m.mem.PublishCounters)
	if tel.Sampler == nil {
		return
	}
	m.core.UseSampler(tel.Sampler)
	reg := tel.Registry
	tel.Sampler.Ratio("cpu.ipc",
		reg.Reader("cpu.instructions_retired"), reg.Reader("cpu.cycles"))
	tel.Sampler.Ratio("memsys.l1.miss_rate",
		reg.Reader("memsys.l1.misses"), reg.Reader("memsys.l1.accesses"))
	tel.Sampler.Ratio("prefetch.coverage",
		reg.Reader("memsys.l2.prefetched_original"), reg.Reader("memsys.l2.demand"))
	tel.Sampler.Ratio("prefetch.accuracy",
		reg.Reader("memsys.l2.prefetched_original"), reg.Reader("memsys.prefetch.fills"))
	if m.cfg.Warmup > 0 {
		tel.Sampler.MarkPhase("warmup", 0, 0)
	} else {
		tel.Sampler.MarkPhase("measure", 0, 0)
	}
}

// Position returns the number of dynamic instructions processed so far
// (warmup included).
func (m *Machine) Position() uint64 { return m.core.Done() }

// Total returns the configured run length, warmup plus measured window.
func (m *Machine) Total() uint64 { return m.cfg.Warmup + m.cfg.Instructions }

// RunTo advances the machine to target dynamic instructions from the start
// of the run, clamped to Total. The warmup/measure boundary — parked
// component attachment, statistics snapshots, the sampler phase mark — runs
// only when the advance crosses it, so RunTo(warmup) leaves the machine in
// the pre-boundary state that warm-fork checkpoints capture.
//
// The engine is picked per phase: with Config.WarmupFidelity == FidelityFast
// the warmup window runs on the functional fast-forward engine and the core
// is sealed at the boundary (inside MarkWarmBoundary), so the measured
// window always runs cycle-accurate regardless of fidelity.
func (m *Machine) RunTo(target uint64) {
	w, n := m.cfg.Warmup, m.Total()
	if target > n {
		target = n
	}
	if t := min(target, w); m.core.Done() < t {
		if m.cfg.WarmupFidelity == FidelityFast {
			m.core.FastForwardTo(m.gen, t)
		} else {
			m.core.AdvanceTo(m.gen, t)
		}
	}
	if target > w && w > 0 && !m.core.Warmed() {
		m.boundary()
	}
	m.core.AdvanceTo(m.gen, target)
}

// Run advances to the end of the configured run and returns its Result.
func (m *Machine) Run() Result {
	m.RunTo(m.Total())
	return m.finish()
}

func (m *Machine) boundary() {
	m.attachParked()
	m.core.MarkWarmBoundary(func(cycle int64) {
		if m.cfg.WarmupFidelity == FidelityFast {
			// The warmup ran on the functional clock; settle its leftover
			// future timestamps so the cycle-accurate measured window does
			// not inherit fictitious stalls (see memsys.Quiesce). Runs
			// before the stats snapshot, though it moves no counters.
			m.mem.Quiesce(cycle)
		}
		m.memAtBoundary = m.mem.Stats()
		m.l1AtBoundary = m.mem.L1Stats()
		m.l2AtBoundary = m.mem.L2Stats()
		if m.tel != nil && m.tel.Sampler != nil {
			m.tel.Sampler.MarkPhase("measure", cycle, m.cfg.Warmup)
		}
	})
}

func (m *Machine) attachParked() {
	if !m.parked {
		return
	}
	m.parked = false
	if m.parkedAtL2 {
		m.mem.UseL2Prefetcher(m.pf)
	} else {
		m.mem.UsePrefetcher(m.pf)
	}
	if m.parkedDbp != nil {
		m.mem.UseDeadBlockPredictor(m.parkedDbp)
	}
	if m.parkedRetire != nil {
		m.core.SetOnLoadRetire(m.parkedRetire)
	}
}

// finish closes the run: end-of-run accounting, measured-window subtraction,
// gauge export. All of Result's counter groups report the measured window
// only when a warm boundary was crossed.
func (m *Machine) finish() Result {
	cpuRes := m.core.Finish()
	m.mem.Finish()
	memStats := m.mem.Stats().Sub(m.memAtBoundary)
	if m.tel != nil {
		exportRunGauges(m.tel.Registry, cpuRes, memStats)
	}
	return Result{
		Benchmark:             m.spec.Name,
		Prefetcher:            m.f.Name,
		CPU:                   cpuRes,
		Mem:                   memStats,
		L1:                    m.mem.L1Stats().Sub(m.l1AtBoundary),
		L2:                    m.mem.L2Stats().Sub(m.l2AtBoundary),
		PrefetcherStorageBits: m.pf.StorageBits(),
	}
}

// boundaryCounters lists the warm-boundary snapshot's counters in
// checkpoint order: the hierarchy's, then the L1's, then the L2's.
func (m *Machine) boundaryCounters() []*uint64 {
	mem, l1, l2 := m.memAtBoundary.Fields(), m.l1AtBoundary.Fields(), m.l2AtBoundary.Fields()
	return slices.Concat(mem[:], l1[:], l2[:])
}

// Snapshot implements checkpoint.Snapshotter: an identity section
// (benchmark, seed, warmup, position, cache geometries, boundary
// snapshots) followed by every component's own section — CPU, workload
// generator, memory hierarchy, and the telemetry sampler when one is
// attached. The configured measured window is deliberately not part of
// the identity: the warm state at any pre-boundary position does not
// depend on it, which is what lets one baseline warmup fork into grid
// points with different measure lengths. Decoding checks the identity
// against the machine's own before any component decodes, and a
// post-boundary image attaches the parked components first so section
// names line up with the encoded image.
func (m *Machine) Snapshot(c *checkpoint.Codec) {
	c.Section("machine")
	name, seed, warmup, done := m.spec.Name, m.cfg.Seed, m.cfg.Warmup, m.core.Done()
	// The warmup fidelity is identity: the machine state along a fast
	// warmup trajectory is not the state along a full one (pipeline clocks
	// differ pre-boundary, cycle-trained components diverge), so an image
	// may only be restored into a machine configured for the same engine.
	fidelity := string(m.cfg.WarmupFidelity)
	c.String(&name)
	c.U64(&seed)
	c.U64(&warmup)
	c.String(&fidelity)
	c.U64(&done)
	want := [6]int{
		m.memCfg.L1D.SizeBytes(), m.memCfg.L1D.Ways(), m.memCfg.L1D.BlockBytes(),
		m.memCfg.L2.SizeBytes(), m.memCfg.L2.Ways(), m.memCfg.L2.BlockBytes(),
	}
	geo := want
	for i := range geo {
		c.Int(&geo[i])
	}
	hasSampler, warmed := m.hasSampler(), m.core.Warmed()
	c.Bool(&hasSampler)
	c.Bool(&warmed)
	switch {
	case name != m.spec.Name:
		c.Fail(fmt.Errorf("sim: checkpoint for benchmark %q, machine runs %q", name, m.spec.Name))
	case seed != m.cfg.Seed:
		c.Fail(fmt.Errorf("sim: checkpoint seed %d, machine seed %d", seed, m.cfg.Seed))
	case warmup != m.cfg.Warmup:
		c.Fail(fmt.Errorf("sim: checkpoint warmup %d, machine warmup %d", warmup, m.cfg.Warmup))
	case Fidelity(fidelity) != m.cfg.WarmupFidelity:
		c.Fail(&FidelityMismatchError{Checkpoint: Fidelity(fidelity), Machine: m.cfg.WarmupFidelity})
	case geo != want:
		c.Fail(fmt.Errorf("sim: checkpoint cache geometry %v, machine %v", geo, want))
	case hasSampler != m.hasSampler():
		c.Fail(fmt.Errorf("sim: checkpoint sampler presence %v, machine %v", hasSampler, m.hasSampler()))
	case done > m.Total():
		c.Fail(fmt.Errorf("sim: checkpoint position %d beyond run length %d", done, m.Total()))
	}
	if c.Err() != nil {
		return
	}
	if warmed {
		if c.Decoding() {
			m.attachParked()
		}
		for _, f := range m.boundaryCounters() {
			c.U64(f)
		}
	}
	for _, s := range m.sections(hasSampler) {
		s.Snapshot(c)
	}
}

// sections lists the machine's components in checkpoint order, after the
// identity section: the core, the workload generator, the memory
// hierarchy, and the telemetry sampler when the image carries one.
func (m *Machine) sections(sampler bool) []checkpoint.Snapshotter {
	s := []checkpoint.Snapshotter{m.core, m.gen, m.mem}
	if sampler {
		s = append(s, m.tel.Sampler)
	}
	return s
}

// hasSampler reports whether an observing telemetry run samples, which
// makes its sampler part of the checkpoint image.
func (m *Machine) hasSampler() bool { return m.tel != nil && m.tel.Sampler != nil }

// FidelityMismatchError is the typed error RestoreImage returns when a
// checkpoint image recorded under one warmup fidelity is restored into a
// machine configured for another. Crossing fidelities silently would make
// the continued run's results belong to neither engine: the image's
// machine state was shaped by the engine that produced it.
type FidelityMismatchError struct {
	Checkpoint, Machine Fidelity
}

func (e *FidelityMismatchError) Error() string {
	return fmt.Sprintf("sim: checkpoint recorded under %q warmup fidelity, machine configured for %q",
		e.Checkpoint, e.Machine)
}

// Checkpoint serialises the machine into a complete checkpoint image
// (header, sections, CRC trailer). Encoding cannot fail; the error result
// is always nil.
func (m *Machine) Checkpoint() ([]byte, error) {
	return checkpoint.Encode(m), nil
}

// RestoreImage restores a freshly constructed machine (nothing run yet)
// from a complete checkpoint image encoded by a machine with the same
// benchmark, seed, warmup, warmup fidelity and cache geometries.
func (m *Machine) RestoreImage(data []byte) error {
	if m.core.Done() != 0 {
		return fmt.Errorf("sim: checkpoint restore requires a fresh machine")
	}
	return checkpoint.Decode(data, m)
}
