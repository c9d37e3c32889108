package main

import (
	"errors"
	"fmt"
	"time"

	"tagprefetch/internal/cache"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/workload"
)

// simWorkload is a set of simulations on the Table 1 machine, run one at a
// time on one goroutine with the default engines (full-fidelity warmup,
// reference measured-window loop), as tcpsim runs them.
type simWorkload struct {
	benches []string
	factory func() sim.Factory
}

var (
	// missHeavy spends over half its host time in memsys.Access and the
	// TCP prefetcher's OnMiss: memory-path and prefetcher changes show here.
	missHeavy = simWorkload{[]string{"mcf", "swim"}, sim.TCP8K}
	// computeBound spends most of its host time in the cpu pipeline and the
	// workload generator; memsys serves almost only L1 hits. A memory-path
	// or prefetcher change must leave it unchanged.
	computeBound = simWorkload{[]string{"gzip"}, sim.NoPrefetch}
)

const (
	simWarmup       = 500_000
	simInstructions = 1_000_000
	// stepInsts is the advance of one step: every machine of a pass moves
	// this many instructions per step. Measured-window steps are the
	// workload's warm operations; there are 200, so their p95 has ten
	// beyond it.
	stepInsts = 5_000
	// warmSteps is the number of steps in the warmup window.
	warmSteps = simWarmup / stepInsts
)

func simConfig(seed uint64) sim.Config {
	return sim.Config{Instructions: simInstructions, Warmup: simWarmup, Seed: seed}
}

func simKey(bench string, f sim.Factory) string { return bench + "/" + f.Name }

// pass is one run of every simulation of a workload, advanced in steps.
type pass struct {
	steps   []time.Duration // every step, warmup window first
	results []sim.Result
}

// windows returns the host time spent stepping through each window.
func (p *pass) windows() (warm, measure time.Duration) {
	for i, d := range p.steps {
		if i < warmSteps {
			warm += d
		} else {
			measure += d
		}
	}
	return warm, measure
}

// passInsts is the number of instructions one pass simulates.
func passInsts(machines int) float64 {
	return float64(machines) * (simWarmup + simInstructions)
}

// stepAll advances every machine to the end of the run in steps, timing
// each step.
func (p *pass) stepAll(advance func(target uint64)) {
	for pos := uint64(stepInsts); pos <= simWarmup+simInstructions; pos += stepInsts {
		t0 := time.Now()
		advance(pos)
		p.steps = append(p.steps, time.Since(t0))
	}
}

// machines builds one pass's machines through sim.NewMachine: the pass's
// set-up.
func (w simWorkload) machines(seed uint64) ([]*sim.Machine, error) {
	f := w.factory()
	ms := make([]*sim.Machine, len(w.benches))
	for i, b := range w.benches {
		spec, err := workload.Spec2000(b)
		if err != nil {
			return nil, err
		}
		if ms[i], err = sim.NewMachine(spec, f, simConfig(seed)); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// untraced runs one pass on ms through Machine.RunTo.
func untraced(ms []*sim.Machine) pass {
	var p pass
	p.stepAll(func(target uint64) {
		for _, m := range ms {
			m.RunTo(target)
		}
	})
	for _, m := range ms {
		p.results = append(p.results, m.Run())
	}
	return p
}

// tracedMachine is the machine sim.NewMachine assembles for these
// workloads — the factory's prefetcher at the L1/L2 boundary, Table 1 core
// and hierarchy — built from cpu.New with every interface wrapped.
type tracedMachine struct {
	core       *cpu.Core
	mem        *memsys.MemSys
	gen        workload.Generator
	memAt      memsys.Stats
	l1At, l2At cache.Stats
}

func newTracedMachine(bench string, f sim.Factory, seed uint64, s *spans) (*tracedMachine, error) {
	spec, err := workload.Spec2000(bench)
	if err != nil {
		return nil, err
	}
	if f.AtL2 || f.CriticalFilter {
		return nil, fmt.Errorf("traced machine: factory %s needs wiring the benchmark does not model", f.Name)
	}
	memCfg := memsys.DefaultConfig()
	pf, hybrid := f.Build(memCfg.L1D)
	if hybrid {
		return nil, fmt.Errorf("traced machine: hybrid factory %s is not modelled", f.Name)
	}
	mem := memsys.New(memCfg, tracedPrefetcher{pf, s})
	return &tracedMachine{
		core: cpu.New(cpu.Config{}, tracedMem{mem, memCfg.L1HitLatency, s}),
		mem:  mem,
		gen:  tracedGen{workload.New(spec, seed), s},
	}, nil
}

// runTo mirrors sim.Machine.RunTo for a full-fidelity run: the warm
// boundary is marked when an advance crosses it.
func (t *tracedMachine) runTo(target uint64) {
	if target > simWarmup && !t.core.Warmed() {
		t.core.AdvanceTo(t.gen, simWarmup)
		t.core.MarkWarmBoundary(func(int64) {
			t.memAt, t.l1At, t.l2At = t.mem.Stats(), t.mem.L1Stats(), t.mem.L2Stats()
		})
	}
	t.core.AdvanceTo(t.gen, target)
}

func (t *tracedMachine) result() sim.Result {
	c := t.core.Finish()
	t.mem.Finish()
	return sim.Result{CPU: c, Mem: t.mem.Stats().Sub(t.memAt),
		L1: t.mem.L1Stats().Sub(t.l1At), L2: t.mem.L2Stats().Sub(t.l2At)}
}

// traced runs one pass on traced machines, accumulating into s.
func (w simWorkload) traced(seed uint64, s *spans) (pass, error) {
	f := w.factory()
	ms := make([]*tracedMachine, len(w.benches))
	for i, b := range w.benches {
		var err error
		if ms[i], err = newTracedMachine(b, f, seed, s); err != nil {
			return pass{}, err
		}
	}
	var p pass
	p.stepAll(func(target uint64) {
		for _, m := range ms {
			m.runTo(target)
		}
	})
	for _, m := range ms {
		p.results = append(p.results, m.result())
	}
	return p, nil
}

// check verifies a pass's results against the goldens and the run's
// earlier passes.
func (w simWorkload) check(v *verifier, results []sim.Result) error {
	f := w.factory()
	var errs []error
	for i, r := range results {
		errs = append(errs, v.sim(simKey(w.benches[i], f), countersOf(r)))
	}
	return errors.Join(errs...)
}

func runSim(b *bench, w simWorkload) error {
	if b.trace {
		return traceSim(b, w)
	}
	var s samples
	measured := float64(len(w.benches)) * simInstructions
	for n, start := 0, time.Now(); b.more(start, n); n++ {
		var ms []*sim.Machine
		for i := 0; i < setupReps; i++ {
			err := s.setUp(func() (err error) {
				ms, err = w.machines(b.seed)
				return err
			})
			if err != nil {
				return err
			}
		}
		quiesce()
		p := untraced(ms)
		s.rss = append(s.rss, peakRSSMB())
		b.op(w.check(b.verify, p.results))
		warm, measure := p.windows()
		s.cold = append(s.cold, (warm + measure).Seconds())
		s.rate = append(s.rate, measured/measure.Seconds()/1e6)
		from := len(s.warm)
		for _, d := range p.steps[warmSteps:] {
			s.warm = append(s.warm, millis(d))
		}
		s.roundP95(from)
	}
	return b.endToEnd(s)
}

// traceSim runs half the rounds as untraced passes under the CPU profiler
// and a quarter as traced passes, which take about twice as long, so the
// traced run lasts about as long as an untraced one. Every traced pass must
// reproduce the untraced results exactly, which shows the wrappers time the
// same machine.
func traceSim(b *bench, w simWorkload) error {
	half, quarter := max(1, b.rounds/2), max(1, b.rounds/4)
	var ref []sim.Result
	var untracedWarm, untracedMeasure time.Duration
	passes := 0
	prof, err := startProfile(b.work)
	if err != nil {
		return err
	}
	for start := time.Now(); passes < half && b.more(start, passes); passes++ {
		ms, err := w.machines(b.seed)
		if err != nil {
			prof.stop()
			return err
		}
		p := untraced(ms)
		b.op(w.check(b.verify, p.results))
		ref = p.results
		warm, measure := p.windows()
		untracedWarm += warm
		untracedMeasure += measure
	}
	shares, err := prof.fold()
	if err != nil {
		return err
	}

	var s spans
	var traced time.Duration
	tpasses := 0
	for start := time.Now(); tpasses < quarter && b.more(start, tpasses); tpasses++ {
		p, err := w.traced(b.seed, &s)
		if err != nil {
			return err
		}
		err = w.check(b.verify, p.results)
		for i := range ref {
			r, u := p.results[i], ref[i]
			if r.CPU != u.CPU || r.Mem != u.Mem || r.L1 != u.L1 || r.L2 != u.L2 {
				err = errors.Join(err, fmt.Errorf("%s: traced machine diverged from sim.Machine", w.benches[i]))
			}
		}
		b.op(err)
		warm, measure := p.windows()
		traced += warm + measure
	}

	perPass := passInsts(len(w.benches))
	untracedNS := float64(untracedWarm+untracedMeasure) / (perPass * float64(passes))
	tracedNS := float64(traced) / (perPass * float64(tpasses))
	b.spanLayers(&s, float64(traced), tpasses)
	b.layer("sim.measure_ns_per_inst",
		float64(untracedMeasure)/(float64(len(w.benches))*simInstructions*float64(passes)))
	b.layer("trace.overhead", tracedNS/untracedNS)
	tot := b.verify.total()
	b.layer("cpu.host_ns_per_sim_cycle", float64(untracedMeasure)/float64(passes)/float64(tot.Cycles))
	b.simCounters(tot)
	b.shares(shares)
	return nil
}

// spanLayers reports the traced machine's layers from its spans, with the
// span clock's own cost taken out: every span measured empty more than its
// call, and every parent paid pair − empty more per child span.
func (b *bench) spanLayers(s *spans, total float64, passes int) {
	pair, empty := calibrate()
	extra := pair - empty
	accesses := s.hits + s.misses
	// Top-level children of the core's advance: generator and memory spans.
	children := float64(s.nextNS + s.hitNS + s.missNS + s.prefetchNSInAccesses)
	cpuSelf := total - children - float64(s.nextCalls+accesses)*extra
	b.layer("cpu.self_ns_per_inst", cpuSelf/float64(s.nextCalls))
	b.layer("workload.next_ns", perCall(float64(s.nextNS), s.nextCalls, empty))
	b.layer("memsys.access_calls", float64(accesses/int64(passes)))
	b.layer("memsys.hit_ns", perCall(float64(s.hitNS)-float64(s.hitPfCalls)*extra, s.hits, empty))
	b.layer("memsys.miss_ns", perCall(float64(s.missNS)-float64(s.missPfCalls)*extra, s.misses, empty))
	b.layer("prefetch.onmiss_calls", float64(s.onMissCalls/int64(passes)))
	b.layer("prefetch.onmiss_ns", perCall(float64(s.onMissNS), s.onMissCalls, empty))
	b.layer("prefetch.onaccess_ns", perCall(float64(s.onAccessNS), s.onAccessCalls, empty))
}

// perCall is the mean span time per call less the empty-span cost. A call
// cheaper than the calibration's noise reads 0 rather than negative.
func perCall(ns float64, calls int64, empty float64) float64 {
	if calls == 0 {
		return 0
	}
	return max(0, ns/float64(calls)-empty)
}
