// The functional fast-forward ("atomic") engine: the warmup-phase
// counterpart of the cycle-accurate pipeline in cpu.go, modelled on the
// AtomicSimpleCPU / TimingSimpleCPU fidelity split in gem5.
//
// The engine executes the instruction stream with exact per-access
// semantics — every branch trains the predictor, every load and store
// walks the memory hierarchy (cache contents, MSHR occupancy, dead-block
// and prefetcher training all advance exactly as the workload dictates) —
// but performs no per-cycle pipeline bookkeeping: no functional-unit
// scoreboards, no dispatch/commit scheduling, no dependence tracking.
// Time advances on a deterministic functional clock of one cycle per
// instruction, so memory-system timestamps stay monotonic and every run
// of the same workload and seed is bit-identical.
//
// Because cache replacement is recency-ordered (cache.Cache stamps lines
// with an access counter, not a cycle) and every prefetcher trains on the
// access/miss stream rather than on cycles, the machine state the engine
// produces at the warmup/measure boundary matches the cycle-accurate
// engine's for state-dependent statistics — exactly on most workloads, to
// within a few engine-switch transient events otherwise; cycle-derived
// quantities (warmup IPC, MSHR stall tallies, late-hit counts, and the
// cycle-trained dead-block predictor of the Hybrid scheme) depend on
// which engine ran the warmup. docs/FASTFORWARD.md states the full
// contract.
package cpu

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/workload"
)

// FastForwardTo advances the core to `target` dynamic instructions on the
// functional engine. The core must be fresh (nothing run yet) or already
// fast-forwarding — the cycle-accurate pipeline cannot be re-entered by
// the functional engine once it has produced timing state. Call
// SealFastForward (or MarkWarmBoundary, which seals implicitly) before
// resuming cycle-accurate execution with AdvanceTo.
//
// A target at or below the current position is a no-op.
func (c *Core) FastForwardTo(gen workload.Generator, target uint64) {
	if !c.fastActive {
		if c.done != 0 {
			panic("cpu: FastForwardTo requires a fresh core (the cycle-accurate engine has already run)")
		}
		c.fastActive = true
	}
	for c.done < target {
		i := c.done
		if c.sampler != nil && c.sampler.Due(c.fclock) {
			c.syncCounters(i, c.fclock)
			c.sampler.Sample(c.fclock, i)
		}
		gen.Next(&c.inst)
		c.fastStep(&c.inst)
		c.done = i + 1
	}
}

// fastStep executes one dynamic instruction functionally: branch-predictor
// training, the memory-hierarchy walk for loads and stores, and the event
// counters that are per-instruction facts (loads, stores, branches,
// mispredicts). Stall counters stay untouched — there is no pipeline to
// stall — and the functional clock ticks once per instruction.
//
// It runs once per fast-forwarded instruction; internal/sim's allocation
// gate keeps it allocation-free.
func (c *Core) fastStep(inst *workload.Inst) {
	res := &c.res
	switch inst.Class {
	case workload.Branch:
		res.Branches++
		predicted := c.pred.Predict(inst.PC)
		c.pred.Update(inst.PC, inst.Taken)
		if predicted != inst.Taken {
			res.BranchMispredicts++
		}
	case workload.Load:
		res.Loads++
		c.mem.Access(addr.Addr(inst.Addr), addr.Addr(inst.PC), false, c.fclock)
	case workload.Store:
		res.Stores++
		c.mem.Access(addr.Addr(inst.Addr), addr.Addr(inst.PC), true, c.fclock)
	}
	c.fclock++
}

// SealFastForward ends functional execution: every pipeline clock, ring
// and scoreboard is forwarded to the functional clock, so the
// cycle-accurate engine resumes from a quiesced pipeline at that cycle —
// all windows drained, all units free, fetch running. Memory-system
// timestamps written during the fast phase sit at or below the functional
// clock, so time never runs backwards across the switch. A no-op when the
// core is not fast-forwarding.
func (c *Core) SealFastForward() {
	if !c.fastActive {
		return
	}
	c.fastActive = false
	p, f := c.p, c.fclock
	for i := range p.doneAt {
		p.doneAt[i] = f
	}
	for i := range p.commitAt {
		p.commitAt[i] = f
	}
	for _, pool := range [...]*fuPool{p.intALU, p.intMul, p.fpALU, p.fpMul, p.memPort} {
		for i := range pool.freeAt {
			pool.freeAt[i] = f
		}
	}
	p.dispatchCycle, p.dispatchSlots = f, 0
	p.commitCycle, p.commitSlots = f, 0
	p.lastCommit = f
	p.fetchResume = f
}
