// Package cpu is a constructive cycle-level timing model of the paper's
// simulated processor (Table 1): an 8-issue out-of-order superscalar with a
// 128-entry RUU, a 128-entry LSQ, the listed functional-unit mix, and a
// two-level branch predictor driving fetch redirects. That shape is the
// package's constants (IssueWidth, RUUSize, ...); Config selects only the
// branch predictor.
//
// The model is "constructive" in the sense of SimpleScalar-class timing
// analysis: because dispatch and commit are in order, each dynamic
// instruction's dispatch, issue, completion and commit cycles can be
// computed in program order with resource free-time bookkeeping —
//
//	dispatch(i) >= dispatch(i-1)                 (8/cycle)
//	dispatch(i) >= commit(i - RUU)               (window space)
//	dispatch(i) >= redirect of last mispredict   (fetch stall)
//	mem op      >= commit of (memop - LSQ)       (LSQ space)
//	issue(i)     = max(dispatch+1, deps done, FU free)
//	done(i)      = issue + latency   (loads: memory-system walk)
//	commit(i)    = max(done(i), commit(i-1))     (8/cycle, in order)
//
// which captures exactly the mechanisms that determine how much L1-miss
// latency the machine can hide: dependence chains (pointer chases
// serialise), window occupancy (long misses fill the RUU and stall
// dispatch), MLP (independent misses overlap in the memory system), and
// issue/FU contention. See DESIGN.md §5 and §7 for the deviations.
package cpu

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/branch"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// Memory is the data-memory interface the core drives (satisfied by
// memsys.MemSys).
type Memory interface {
	// Access performs a load/store issued at cycle now and returns the
	// cycle at which the data is available.
	Access(a, pc addr.Addr, write bool, now int64) int64
}

// Table 1's core, the only machine the paper evaluates. Every part of
// its shape is fixed; only the branch predictor is configurable.
const (
	IssueWidth = 8   // instructions dispatched and committed per cycle
	RUUSize    = 128 // register update unit (window) entries
	LSQSize    = 128 // load/store queue entries

	IntALUs  = 8 // functional-unit counts
	IntMults = 3
	FPALUs   = 6
	FPMults  = 2
	MemPorts = 4

	RedirectPenalty = 3 // extra front-end cycles after a mispredict resolves
)

// The pipeline indexes its rings with RUUSize-1 as a mask, so RUUSize
// must be a power of two: otherwise this array length is negative and the
// package does not build.
var _ [-(RUUSize & (RUUSize - 1))]struct{}

// The LSQ is never modelled: the memory op LSQSize memory ops back is at
// least LSQSize instructions back, and commit is in order, so with
// LSQSize >= RUUSize it has committed by the time the RUU entry dispatch
// waits on has. Otherwise this array length is negative.
var _ [LSQSize - RUUSize]struct{}

// Config parameterises the core.
type Config struct {
	// Predictor names the front-end branch predictor, a row of
	// branch.Predictors; "" selects branch.Default.
	Predictor string
}

// execution latencies per class (cycles in a functional unit).
const (
	latIntALU = 1
	latIntMul = 3
	latFPALU  = 2
	latFPMul  = 4
	latBranch = 1
	latAGU    = 1 // address generation before the cache access
)

// Result summarises one run.
type Result struct {
	Instructions uint64
	Cycles       int64
	IPC          float64

	Loads, Stores      uint64
	Branches           uint64
	BranchMispredicts  uint64
	DispatchStallRUU   uint64 // instructions whose dispatch waited on window space
	FetchRedirectStall uint64 // instructions delayed by a mispredict redirect
}

// fuPool is a scoreboard of identical pipelined units: each issue occupies
// a unit for one cycle (initiation interval 1).
type fuPool struct {
	freeAt []int64
}

func newPool(n int) *fuPool { return &fuPool{freeAt: make([]int64, n)} }

// issue returns the earliest cycle >= ready at which a unit accepts the op,
// and books the unit. It books the lowest-index unit among those free
// earliest: freeAt order is part of the checkpoint image. The running
// minimum lives in locals so the scan compiles to conditional moves, not
// data-dependent branches.
//
// Every instruction books a functional unit.
func (p *fuPool) issue(ready int64) int64 {
	f := p.freeAt
	best, lo := 0, f[0]
	for i := 1; i < len(f); i++ {
		if v := f[i]; v < lo {
			best, lo = i, v
		}
	}
	at := max(ready, lo)
	f[best] = at + 1
	return at
}

// sub returns the per-counter difference r - w (measured-only counters
// after a warmup boundary).
func (r Result) sub(w Result) Result {
	return Result{
		Instructions:       r.Instructions - w.Instructions,
		Cycles:             r.Cycles - w.Cycles,
		Loads:              r.Loads - w.Loads,
		Stores:             r.Stores - w.Stores,
		Branches:           r.Branches - w.Branches,
		BranchMispredicts:  r.BranchMispredicts - w.BranchMispredicts,
		DispatchStallRUU:   r.DispatchStallRUU - w.DispatchStallRUU,
		FetchRedirectStall: r.FetchRedirectStall - w.FetchRedirectStall,
	}
}

// Core is the out-of-order processor model. Construct with New.
//
// Run state (the pipeline, cumulative counters, warm-boundary snapshot) is
// held on the Core so a run can be advanced incrementally with AdvanceTo
// (or FastForwardTo during warmup), split at MarkWarmBoundary,
// checkpointed mid-flight, and finished with Finish. sim.Machine is the
// driver that sequences these calls.
type Core struct {
	mem  Memory // wiring; the memory system serialises its own state through the machine walk
	pred branch.Predictor

	p       *pipeline
	res     Result // cumulative counters since construction
	done    uint64 // dynamic instructions processed since construction
	warmed  bool   // MarkWarmBoundary has been called
	warmRes Result // counters at the warm boundary (valid when warmed)

	// functional fast-forward state (atomic.go): while fastActive, the
	// pipeline above is untouched and time is the functional clock.
	fastActive bool
	fclock     int64 // functional cycle: one per fast-forwarded instruction

	// inst holds the instruction being stepped. A local would escape
	// through the Generator interface and cost a heap allocation per
	// advance.
	inst workload.Inst

	// telemetry (optional; nil fields are skipped on the hot path)
	instrCtr *telemetry.Counter // host-side observability handle, outside the simulated state
	cycleCtr *telemetry.Counter // host-side observability handle, outside the simulated state
	sampler  *telemetry.Sampler // host-side observability wiring; the sampler snapshots itself when registered
	publish  func()             // host-side observability wiring, outside the simulated state
}

// New creates a core bound to a data-memory system.
// An unknown predictor name panics; sim.Config.Validate reports it first.
func New(cfg Config, mem Memory) *Core {
	pred, err := branch.New(cfg.Predictor)
	if err != nil {
		panic("cpu: " + err.Error())
	}
	return &Core{mem: mem, pred: pred, p: newPipeline(mem, pred)}
}

// SetOnLoadRetire installs (or clears) the load-retirement hook: fn is
// invoked as each load commits with whether the load's completion was on
// the commit critical path (the window drained waiting for it). It feeds
// critical-miss predictors; sim.Machine attaches one at construction, or
// at the warmup/measure boundary of a baseline warmup.
func (c *Core) SetOnLoadRetire(fn func(pc uint64, critical bool)) {
	c.p.onLoadRetire = fn
}

// AttachTelemetry implements telemetry.Component: the core exports
// cumulative retired-instruction and cycle counters (updated at sampler
// ticks and at run end, so they are cheap to keep). Ratio probes over
// these two counters yield the windowed IPC series.
func (c *Core) AttachTelemetry(reg *telemetry.Registry, _ *telemetry.Tracer) {
	c.instrCtr = reg.Counter("instructions_retired", "dynamic instructions committed")
	c.cycleCtr = reg.Counter("cycles", "cycles elapsed (last commit time)")
}

// UseSampler drives s from the commit loop: the core checks s.Due at each
// retired instruction and snapshots the registered probes. The sampler is
// not thread-safe; it must not be shared across cores.
func (c *Core) UseSampler(s *telemetry.Sampler) { c.sampler = s }

// OnPublish installs fn to run at the core's publish points: each sampler
// tick just before the sample, the warm boundary and Finish. Components
// that count into plain fields mirror them into the registry there
// (memsys.MemSys.PublishCounters).
func (c *Core) OnPublish(fn func()) { c.publish = fn }

// syncCounters publishes the current progress into the attached counters,
// and runs the OnPublish hook.
func (c *Core) syncCounters(instructions uint64, cycles int64) {
	if c.publish != nil {
		c.publish()
	}
	if c.instrCtr == nil {
		return
	}
	c.instrCtr.Store(instructions)
	if cycles >= 0 {
		c.cycleCtr.Store(uint64(cycles))
	}
}

// pipeline is the rolling state of the constructive timing model: the
// completion/commit rings, functional-unit scoreboards, and the front-end
// cursors that carry from one committed instruction to the next. It is
// built once per run and advanced by step. Instruction i occupies RUU slot
// i&(RUUSize-1).
type pipeline struct {
	mem          Memory
	pred         branch.Predictor
	onLoadRetire func(pc uint64, critical bool) // host wiring installed by SetOnLoadRetire, not simulated state

	doneAt   [RUUSize]int64 // completion, ring by instruction index
	commitAt [RUUSize]int64 // commit, same ring

	intALU, intMul, fpALU, fpMul, memPort *fuPool

	dispatchCycle int64 // cycle currently receiving dispatches
	dispatchSlots int
	commitCycle   int64
	commitSlots   int
	lastCommit    int64
	fetchResume   int64
}

// newPipeline allocates every scoreboard up front (the rings are arrays in
// the pipeline) so that step itself never allocates.
func newPipeline(mem Memory, pred branch.Predictor) *pipeline {
	return &pipeline{
		mem:     mem,
		pred:    pred,
		intALU:  newPool(IntALUs),
		intMul:  newPool(IntMults),
		fpALU:   newPool(FPALUs),
		fpMul:   newPool(FPMults),
		memPort: newPool(MemPorts),
	}
}

// step advances the model by one dynamic instruction — dispatch, operand
// readiness, issue/execute, in-order commit — accumulating stall and event
// counters into res. i is the dynamic instruction index. It is the
// cycle-accurate model's only per-instruction path; internal/sim's
// allocation gate keeps it allocation-free.
func (p *pipeline) step(i uint64, inst *workload.Inst, res *Result) {
	// --- dispatch ---
	d := p.dispatchCycle
	if p.fetchResume > d {
		d = p.fetchResume
		res.FetchRedirectStall++
	}
	if i >= RUUSize {
		if w := p.commitAt[i&(RUUSize-1)]; w > d {
			d = w
			res.DispatchStallRUU++
		}
	}
	if d > p.dispatchCycle {
		p.dispatchCycle = d
		p.dispatchSlots = 0
	}
	if p.dispatchSlots == IssueWidth {
		p.dispatchCycle++
		p.dispatchSlots = 0
	}
	d = p.dispatchCycle
	p.dispatchSlots++

	// --- operand readiness ---
	// A producer more than RUUSize back committed before our dispatch,
	// so it is necessarily complete.
	ready := d + 1
	if dep := inst.Dep1; dep > 0 && uint64(dep) <= i && dep <= RUUSize {
		if w := p.doneAt[(i-uint64(dep))&(RUUSize-1)]; w > ready {
			ready = w
		}
	}
	if dep := inst.Dep2; dep > 0 && uint64(dep) <= i && dep <= RUUSize {
		if w := p.doneAt[(i-uint64(dep))&(RUUSize-1)]; w > ready {
			ready = w
		}
	}

	// --- issue and execute ---
	var done int64
	switch inst.Class {
	case workload.IntALU:
		done = p.intALU.issue(ready) + latIntALU
	case workload.IntMult:
		done = p.intMul.issue(ready) + latIntMul
	case workload.FPALU:
		done = p.fpALU.issue(ready) + latFPALU
	case workload.FPMult:
		done = p.fpMul.issue(ready) + latFPMul
	case workload.Branch:
		done = p.intALU.issue(ready) + latBranch
		res.Branches++
		predicted := p.pred.Predict(inst.PC)
		p.pred.Update(inst.PC, inst.Taken)
		if predicted != inst.Taken {
			res.BranchMispredicts++
			if r := done + RedirectPenalty; r > p.fetchResume {
				p.fetchResume = r
			}
		}
	case workload.Load:
		res.Loads++
		at := p.memPort.issue(ready) + latAGU
		done = p.mem.Access(addr.Addr(inst.Addr), addr.Addr(inst.PC), false, at)
	case workload.Store:
		res.Stores++
		at := p.memPort.issue(ready) + latAGU
		// Stores retire through the store buffer: later instructions
		// and commit do not wait for the memory system, but the access
		// still exercises the hierarchy (write-allocate, traffic).
		p.mem.Access(addr.Addr(inst.Addr), addr.Addr(inst.PC), true, at)
		done = at + 1
	default:
		done = p.intALU.issue(ready) + latIntALU
	}
	p.doneAt[i&(RUUSize-1)] = done

	// --- in-order commit, IssueWidth per cycle ---
	cm := done
	if p.lastCommit > cm {
		cm = p.lastCommit
	}
	if inst.Class == workload.Load && p.onLoadRetire != nil {
		// The load is critical when its completion, not older work,
		// determines the commit time — by more than the few cycles of
		// natural pipeline skew between completion and commit.
		const commitSkew = 8
		p.onLoadRetire(inst.PC, done > p.lastCommit+commitSkew)
	}
	if cm > p.commitCycle {
		p.commitCycle = cm
		p.commitSlots = 0
	}
	if p.commitSlots == IssueWidth {
		p.commitCycle++
		p.commitSlots = 0
	}
	cm = p.commitCycle
	p.commitSlots++
	p.lastCommit = cm
	p.commitAt[i&(RUUSize-1)] = cm
}

// Done returns the number of dynamic instructions processed so far.
func (c *Core) Done() uint64 { return c.done }

// Cycle returns the commit cycle of the most recently committed
// instruction — the functional clock while fast-forwarding.
func (c *Core) Cycle() int64 {
	if c.fastActive {
		return c.fclock
	}
	return c.p.lastCommit
}

// Warmed reports whether MarkWarmBoundary has been called.
func (c *Core) Warmed() bool { return c.warmed }

// AdvanceTo processes dynamic instructions from gen until `target` have been
// processed in total. Each iteration checks the sampler, draws the next
// instruction, and steps the pipeline, so an advance split at any point is
// bit-identical to an unsplit one. A target at or below the current
// position is a no-op.
func (c *Core) AdvanceTo(gen workload.Generator, target uint64) {
	if c.fastActive && c.done < target {
		panic("cpu: AdvanceTo during fast-forward; call SealFastForward (or MarkWarmBoundary) first")
	}
	for c.done < target {
		i := c.done
		if c.sampler != nil && c.sampler.Due(c.p.lastCommit) {
			c.syncCounters(i, c.p.lastCommit)
			c.sampler.Sample(c.p.lastCommit, i)
		}
		gen.Next(&c.inst)
		c.p.step(i, &c.inst, &c.res)
		c.done = i + 1
	}
}

// MarkWarmBoundary snapshots the cumulative counters at the current position
// so Finish can report the measured window only, and invokes onBoundary (if
// non-nil) with the boundary commit cycle — callers snapshot memory-system
// statistics and mark sampling phases there. A core that fast-forwarded the
// warmup is sealed first, so the boundary cycle is the functional clock and
// the measured window runs cycle-accurate from it.
func (c *Core) MarkWarmBoundary(onBoundary func(cycle int64)) {
	c.SealFastForward()
	c.warmRes = c.res
	c.warmRes.Instructions = c.done
	c.warmRes.Cycles = c.p.lastCommit
	c.warmed = true
	if onBoundary != nil {
		c.syncCounters(c.done, c.p.lastCommit)
		onBoundary(c.p.lastCommit)
	}
}

// Finish closes the run and returns its Result: the measured window when a
// warm boundary was marked, the whole run otherwise.
func (c *Core) Finish() Result {
	res := c.res
	res.Cycles = c.p.lastCommit
	res.Instructions = c.done
	c.syncCounters(c.done, c.p.lastCommit)
	if c.warmed {
		res = res.sub(c.warmRes)
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instructions) / float64(res.Cycles)
	}
	return res
}
