package cpu

import (
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/workload"
	"tagprefetch/internal/xrand"
)

// fixedMem completes every access after a fixed latency.
type fixedMem struct {
	latency  int64
	accesses uint64
}

func (m *fixedMem) Access(a, pc addr.Addr, write bool, now int64) int64 {
	m.accesses++
	return now + m.latency
}

// scriptGen replays a fixed instruction slice in a loop.
type scriptGen struct {
	insts []workload.Inst
	pos   int
}

func (g *scriptGen) Next(in *workload.Inst) {
	*in = g.insts[g.pos]
	g.pos = (g.pos + 1) % len(g.insts)
}
func (g *scriptGen) Snapshot(c *checkpoint.Codec) { c.Int(&g.pos) }

// runMeasured drives a fresh core the way sim.Machine does: warmup on the
// cycle-accurate engine (or, with fast, the functional one), the warm
// boundary with its callback, then the measured window. warmup == 0 runs
// the whole window unsplit.
func runMeasured(c *Core, gen workload.Generator, warmup, measure uint64, fast bool, onBoundary func(int64)) Result {
	if warmup > 0 {
		if fast {
			c.FastForwardTo(gen, warmup)
		} else {
			c.AdvanceTo(gen, warmup)
		}
		c.MarkWarmBoundary(onBoundary)
	}
	c.AdvanceTo(gen, warmup+measure)
	return c.Finish()
}

// runScript runs n instructions of a looped script with no warmup.
func runScript(c *Core, insts []workload.Inst, n uint64) Result {
	return runMeasured(c, &scriptGen{insts: insts}, 0, n, false, nil)
}

// mustSpec returns the named benchmark's workload model.
func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.Spec2000(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func run(t *testing.T, cfg Config, insts []workload.Inst, n uint64, lat int64) Result {
	t.Helper()
	return runScript(New(cfg, &fixedMem{latency: lat}), insts, n)
}

func TestDefaultsMatchTable1(t *testing.T) {
	if IssueWidth != 8 || RUUSize != 128 || LSQSize != 128 || RedirectPenalty != 3 {
		t.Errorf("core = %d-issue, %d-RUU, %d-LSQ, redirect %d", IssueWidth, RUUSize, LSQSize, RedirectPenalty)
	}
	if IntALUs != 8 || IntMults != 3 || FPALUs != 6 || FPMults != 2 || MemPorts != 4 {
		t.Errorf("FUs = %d IntALU, %d IntMult, %d FPALU, %d FPMult, %d ports", IntALUs, IntMults, FPALUs, FPMults, MemPorts)
	}
}

func TestIndependentALUReachesIssueWidth(t *testing.T) {
	r := run(t, Config{}, []workload.Inst{{Class: workload.IntALU}}, 100000, 0)
	if r.IPC < 7.0 || r.IPC > 8.01 {
		t.Errorf("IPC = %v, want ~8 for independent int ops", r.IPC)
	}
}

func TestSerialDependencyChainIPC1(t *testing.T) {
	// Every instruction depends on the previous one: IPC ~ 1/latency = 1.
	r := run(t, Config{}, []workload.Inst{{Class: workload.IntALU, Dep1: 1}}, 50000, 0)
	if r.IPC > 1.1 {
		t.Errorf("IPC = %v, want ~1 for a serial chain", r.IPC)
	}
	if r.IPC < 0.8 {
		t.Errorf("IPC = %v, suspiciously low", r.IPC)
	}
}

func TestFPMultUnitsBoundThroughput(t *testing.T) {
	// Only 2 FPMult units: independent FP multiplies cap at 2/cycle.
	r := run(t, Config{}, []workload.Inst{{Class: workload.FPMult}}, 50000, 0)
	if r.IPC > 2.1 {
		t.Errorf("IPC = %v exceeds FPMult bandwidth", r.IPC)
	}
	if r.IPC < 1.5 {
		t.Errorf("IPC = %v, want near 2", r.IPC)
	}
}

func TestMemPortsBoundLoadThroughput(t *testing.T) {
	r := run(t, Config{}, []workload.Inst{{Class: workload.Load, Addr: 0x1000}}, 50000, 1)
	if r.IPC > 4.1 {
		t.Errorf("IPC = %v exceeds 4 memory ports", r.IPC)
	}
	if r.Loads != 50000 {
		t.Errorf("loads = %d", r.Loads)
	}
}

func TestLongLatencyIndependentLoadsOverlap(t *testing.T) {
	// Independent 100-cycle loads: the 128-entry window holds ~128 in
	// flight, so throughput ~ min(4 ports, 128/100) > 1 load/cycle never —
	// but way better than 1/100.
	mix := []workload.Inst{
		{Class: workload.Load, Addr: 0x1000},
		{Class: workload.IntALU},
		{Class: workload.IntALU},
		{Class: workload.IntALU},
	}
	r := run(t, Config{}, mix, 40000, 100)
	if r.IPC < 1.0 {
		t.Errorf("IPC = %v: independent long loads failed to overlap", r.IPC)
	}
}

func TestDependentLoadsSerialise(t *testing.T) {
	// Each load's address depends on the previous load (pointer chase):
	// IPC collapses to ~1/latency.
	chase := []workload.Inst{{Class: workload.Load, Addr: 0x1000, Dep1: 1}}
	r := run(t, Config{}, chase, 2000, 100)
	if r.IPC > 0.02 {
		t.Errorf("IPC = %v: dependent loads overlapped", r.IPC)
	}
}

func TestWindowLimitsOverlap(t *testing.T) {
	// Independent 200-cycle loads: the window holds RUUSize instructions,
	// so once it fills, dispatch waits on the oldest load and at most
	// RUUSize instructions complete per load latency (Little's law). A
	// 20-cycle memory never fills it.
	mix := []workload.Inst{
		{Class: workload.Load, Addr: 0x1000},
		{Class: workload.IntALU},
	}
	slow := run(t, Config{}, mix, 20000, 200)
	if slow.DispatchStallRUU == 0 {
		t.Error("no RUU stalls with 200-cycle loads")
	}
	if bound := float64(RUUSize) / 200; slow.IPC > bound {
		t.Errorf("IPC %v exceeds the window bound %v", slow.IPC, bound)
	}
	fast := run(t, Config{}, mix, 20000, 20)
	if fast.IPC <= slow.IPC {
		t.Errorf("20-cycle IPC %v <= 200-cycle IPC %v", fast.IPC, slow.IPC)
	}
}

func TestBranchMispredictsStallFetch(t *testing.T) {
	// Under an always-taken predictor a not-taken branch mispredicts: it
	// issues at 1 and resolves at 2, and the next instruction dispatches
	// RedirectPenalty cycles later, at 5, and completes at 7. Taken, the
	// pair dispatches together and commits at 2.
	for _, tc := range []struct {
		taken  bool
		cycles int64
		stalls uint64
	}{{false, 2 + RedirectPenalty + 2, 1}, {true, 2, 0}} {
		insts := []workload.Inst{
			{Class: workload.Branch, PC: 0x400000, Taken: tc.taken},
			{Class: workload.IntALU},
		}
		r := runScript(New(Config{Predictor: "always-taken"}, &fixedMem{}), insts, 2)
		if r.Cycles != tc.cycles || r.FetchRedirectStall != tc.stalls {
			t.Errorf("taken=%v: cycles %d, redirect stalls %d; want %d, %d",
				tc.taken, r.Cycles, r.FetchRedirectStall, tc.cycles, tc.stalls)
		}
	}

	// Alternating branches defeat the default predictor's 2-bit counters
	// enough to produce mispredicts, and IPC drops below a predictable
	// stream's.
	alternating := make([]workload.Inst, 2)
	alternating[0] = workload.Inst{Class: workload.Branch, PC: 0x400000, Taken: true}
	alternating[1] = workload.Inst{Class: workload.Branch, PC: 0x400000, Taken: false}
	r := run(t, Config{}, alternating, 20000, 0)
	if r.BranchMispredicts == 0 {
		t.Fatal("no mispredicts on an adversarial pattern")
	}
	if r.FetchRedirectStall == 0 {
		t.Error("mispredicts never stalled fetch")
	}
	perfect := []workload.Inst{{Class: workload.Branch, PC: 0x400100, Taken: true}}
	rp := run(t, Config{}, perfect, 20000, 0)
	if rp.IPC <= r.IPC {
		t.Errorf("predictable branches (%v) not faster than adversarial (%v)", rp.IPC, r.IPC)
	}
}

func TestStoresDoNotBlockCommit(t *testing.T) {
	// Stores with huge memory latency must not serialise the pipeline
	// (store-buffer semantics).
	stores := []workload.Inst{
		{Class: workload.Store, Addr: 0x1000},
		{Class: workload.IntALU},
		{Class: workload.IntALU},
		{Class: workload.IntALU},
	}
	r := run(t, Config{}, stores, 20000, 500)
	if r.IPC < 2.0 {
		t.Errorf("IPC = %v: stores blocked the pipeline", r.IPC)
	}
	if r.Stores != 5000 {
		t.Errorf("stores = %d", r.Stores)
	}
}

func TestMemoryLatencyHurtsIPC(t *testing.T) {
	mix := []workload.Inst{
		{Class: workload.Load, Addr: 0x1000, Dep1: 1},
		{Class: workload.IntALU, Dep1: 1},
		{Class: workload.IntALU, Dep1: 1},
	}
	fast := run(t, Config{}, mix, 20000, 2)
	slow := run(t, Config{}, mix, 20000, 150)
	if slow.IPC >= fast.IPC/2 {
		t.Errorf("150-cycle loads IPC %v vs 2-cycle %v: latency not felt", slow.IPC, fast.IPC)
	}
}

func TestResultBookkeeping(t *testing.T) {
	mix := []workload.Inst{
		{Class: workload.Load, Addr: 0x1000},
		{Class: workload.Store, Addr: 0x2000},
		{Class: workload.Branch, PC: 0x400000, Taken: true},
		{Class: workload.IntALU},
	}
	r := run(t, Config{}, mix, 4000, 1)
	if r.Instructions != 4000 || r.Loads != 1000 || r.Stores != 1000 || r.Branches != 1000 {
		t.Errorf("result = %+v", r)
	}
	if r.Cycles <= 0 || r.IPC <= 0 {
		t.Errorf("timing = %+v", r)
	}
}

func TestDeterministicRuns(t *testing.T) {
	g1 := workload.New(mustSpec(t, "gzip"), 7)
	g2 := workload.New(mustSpec(t, "gzip"), 7)
	c1 := New(Config{}, &fixedMem{latency: 10})
	c2 := New(Config{}, &fixedMem{latency: 10})
	r1 := runMeasured(c1, g1, 0, 50000, false, nil)
	r2 := runMeasured(c2, g2, 0, 50000, false, nil)
	if r1 != r2 {
		t.Errorf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

func TestOnLoadRetireCriticality(t *testing.T) {
	// Serially dependent long-latency loads are critical; loads buried in
	// abundant independent compute are not.
	type sample struct {
		criticals, total int
	}
	run := func(insts []workload.Inst, lat int64) sample {
		var s sample
		core := New(Config{}, &fixedMem{latency: lat})
		core.SetOnLoadRetire(func(pc uint64, critical bool) {
			s.total++
			if critical {
				s.criticals++
			}
		})
		runScript(core, insts, 20000)
		return s
	}

	chase := run([]workload.Inst{{Class: workload.Load, Addr: 0x1000, Dep1: 1, PC: 0x10}}, 200)
	if chase.total == 0 || float64(chase.criticals)/float64(chase.total) < 0.9 {
		t.Errorf("dependent loads: %d/%d critical, want nearly all", chase.criticals, chase.total)
	}

	buried := run([]workload.Inst{
		{Class: workload.Load, Addr: 0x1000, PC: 0x20},
		{Class: workload.IntALU}, {Class: workload.IntALU}, {Class: workload.IntALU},
		{Class: workload.IntALU}, {Class: workload.IntALU}, {Class: workload.IntALU},
		{Class: workload.IntALU},
	}, 1)
	if buried.total == 0 || float64(buried.criticals)/float64(buried.total) > 0.5 {
		t.Errorf("fast loads: %d/%d critical, want few", buried.criticals, buried.total)
	}
}

func TestRunMeasuredSubtractsWarmup(t *testing.T) {
	g1 := workload.New(mustSpec(t, "gzip"), 5)
	core := New(Config{}, &fixedMem{latency: 5})
	r := runMeasured(core, g1, 30_000, 60_000, false, nil)
	if r.Instructions != 60_000 {
		t.Errorf("instructions = %d, want measured-only", r.Instructions)
	}
	if r.Cycles <= 0 {
		t.Errorf("cycles = %d", r.Cycles)
	}
	// A boundary callback must fire exactly once.
	calls := 0
	g2 := workload.New(mustSpec(t, "gzip"), 5)
	core2 := New(Config{}, &fixedMem{latency: 5})
	runMeasured(core2, g2, 10_000, 10_000, false, func(int64) { calls++ })
	if calls != 1 {
		t.Errorf("boundary callbacks = %d", calls)
	}
}

func TestGoldenSchedule(t *testing.T) {
	// Hand-checked schedule on the Table 1 core with a 10-cycle memory:
	//
	//   i0 load        : dispatch 0, AGU at 1, mem access at 2 -> done 12
	//   i1 alu dep(i0) : dispatch 0, ready 12                  -> done 13
	//   i2-i4 mult     : dispatch 0, one IntMult each at 1     -> done 4
	//   i5 mult        : dispatch 0, 3 IntMults busy, issue 2  -> done 5
	//   i6 alu         : dispatch 0, issue 1                   -> done 2
	//   i7 alu dep(i5) : dispatch 0, ready 5                   -> done 6
	//   i8 alu         : dispatch 1 (8-wide), issue 2          -> done 3
	//   i9 alu         : dispatch 1, issue 2                   -> done 3
	//
	// commits (in order, 8 per cycle): i0@12, i1-i8@13, i9@14.
	insts := []workload.Inst{
		{Class: workload.Load, Addr: 0x1000},
		{Class: workload.IntALU, Dep1: 1},
		{Class: workload.IntMult},
		{Class: workload.IntMult},
		{Class: workload.IntMult},
		{Class: workload.IntMult},
		{Class: workload.IntALU},
		{Class: workload.IntALU, Dep1: 2},
		{Class: workload.IntALU},
		{Class: workload.IntALU},
	}
	wantDone := []int64{12, 13, 4, 4, 4, 5, 2, 6, 3, 3}
	wantCommit := []int64{12, 13, 13, 13, 13, 13, 13, 13, 13, 14}
	c := New(Config{}, &fixedMem{latency: 10})
	gen := &scriptGen{insts: insts}
	for i := range insts {
		c.AdvanceTo(gen, uint64(i+1))
		if done, commit := c.p.doneAt[i], c.p.commitAt[i]; done != wantDone[i] || commit != wantCommit[i] {
			t.Errorf("i%d: done %d, commit %d; want %d, %d", i, done, commit, wantDone[i], wantCommit[i])
		}
	}
	r := c.Finish()
	if r.Cycles != 14 {
		t.Errorf("cycles = %d, want 14", r.Cycles)
	}
	if r.IPC != 10.0/14 {
		t.Errorf("IPC = %v", r.IPC)
	}
}

func TestGoldenIndependentPair(t *testing.T) {
	// IssueWidth independent single-cycle ALU ops dispatch together at
	// cycle 0, issue at 1, complete at 2, and all commit at 2; one more
	// dispatches a cycle later and commits at 3.
	alu := []workload.Inst{{Class: workload.IntALU}}
	if r := runScript(New(Config{}, &fixedMem{}), alu, IssueWidth); r.Cycles != 2 {
		t.Errorf("%d ops: cycles = %d, want 2", IssueWidth, r.Cycles)
	}
	if r := runScript(New(Config{}, &fixedMem{}), alu, IssueWidth+1); r.Cycles != 3 {
		t.Errorf("%d ops: cycles = %d, want 3", IssueWidth+1, r.Cycles)
	}
}

// refIssue is the scoreboard scan fuPool.issue replaced: the first unit
// with the smallest freeAt, booked at max(ready, freeAt).
func refIssue(freeAt []int64, ready int64) int64 {
	best := 0
	for i := 1; i < len(freeAt); i++ {
		if freeAt[i] < freeAt[best] {
			best = i
		}
	}
	at := ready
	if freeAt[best] > at {
		at = freeAt[best]
	}
	freeAt[best] = at + 1
	return at
}

// TestFUPoolIssueMatchesReference drives fuPool.issue and the reference
// scan with the same random ready sequences on pools of 1 to 8 units. The
// small value range makes ties among freeAt entries (and between ready and
// the minimum) common, so the lowest-index tie-break is exercised; the
// full freeAt array must match after every issue, since its order is part
// of the checkpoint image.
func TestFUPoolIssueMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	for n := 1; n <= 8; n++ {
		p := newPool(n)
		ref := make([]int64, n)
		for i := range ref {
			v := int64(rng.Intn(6))
			p.freeAt[i], ref[i] = v, v
		}
		var clock int64
		for step := 0; step < 5000; step++ {
			clock += int64(rng.Intn(3))
			ready := clock + int64(rng.Intn(4)) - 1
			got, want := p.issue(ready), refIssue(ref, ready)
			if got != want {
				t.Fatalf("n=%d step %d: issue(%d) = %d, reference %d", n, step, ready, got, want)
			}
			for i := range ref {
				if p.freeAt[i] != ref[i] {
					t.Fatalf("n=%d step %d: freeAt %v, reference %v", n, step, p.freeAt, ref)
				}
			}
		}
	}
}

// stepMix is BenchmarkPipelineStep's script: a load-heavy integer loop
// with a dependent load, a store, FP work and two branches, so every
// issue path runs.
var stepMix = []workload.Inst{
	{Class: workload.Load, Addr: 0x1000, PC: 0x10},
	{Class: workload.IntALU, Dep1: 1},
	{Class: workload.Load, Addr: 0x2000, PC: 0x18, Dep1: 1},
	{Class: workload.IntMult, Dep1: 1},
	{Class: workload.Store, Addr: 0x3000, PC: 0x20, Dep1: 2},
	{Class: workload.FPALU},
	{Class: workload.FPMult, Dep1: 1},
	{Class: workload.IntALU, Dep2: 3},
	{Class: workload.Branch, PC: 0x40, Taken: true},
	{Class: workload.Load, Addr: 0x4000, PC: 0x48},
	{Class: workload.IntALU, Dep1: 1},
	{Class: workload.Branch, PC: 0x50, Taken: false},
}

// BenchmarkPipelineStep times the Table 1 core's per-instruction step
// (one op is one instruction) against a fixed-latency memory, after a
// warmup that fills the window. Stepping must not allocate; the time is
// reported only.
func BenchmarkPipelineStep(b *testing.B) {
	c := New(Config{}, &fixedMem{latency: 20})
	gen := &scriptGen{insts: stepMix}
	c.AdvanceTo(gen, 100_000)
	if a := testing.AllocsPerRun(100, func() { c.AdvanceTo(gen, c.Done()+1) }); a != 0 {
		b.Fatalf("step allocates %v times per instruction", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	c.AdvanceTo(gen, c.Done()+uint64(b.N))
}
