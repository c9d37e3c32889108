package cpu

import (
	"testing"

	"tagprefetch/internal/workload"
)

// Regression for the warmup-only boundary bug: with warmup > 0 and
// measure == 0 the boundary must still be marked (onBoundary fires once)
// and the measured Result must be empty — the warmup window must not be
// reported as if it were measured.
func TestRunMeasuredZeroMeasureWindow(t *testing.T) {
	for _, engine := range []struct {
		name string
		fast bool
	}{{"full", false}, {"fast", true}} {
		t.Run(engine.name, func(t *testing.T) {
			calls := 0
			var boundaryCycle int64
			g := workload.New(mustSpec(t, "gzip"), 3)
			core := New(Config{}, &fixedMem{latency: 5})
			r := runMeasured(core, g, 10_000, 0, engine.fast, func(cy int64) { calls++; boundaryCycle = cy })
			if calls != 1 {
				t.Fatalf("boundary callbacks = %d, want 1", calls)
			}
			if boundaryCycle <= 0 {
				t.Errorf("boundary cycle = %d, want > 0", boundaryCycle)
			}
			if r.Instructions != 0 || r.Cycles != 0 || r.IPC != 0 {
				t.Errorf("measured window not empty: %+v", r)
			}
			if r.Loads != 0 || r.Stores != 0 || r.Branches != 0 {
				t.Errorf("warmup events leaked into measured result: %+v", r)
			}
		})
	}
}

// The functional clock ticks exactly once per instruction, so the boundary
// cycle after a fast warmup equals the warmup length.
func TestFastForwardClockIsInstructionCount(t *testing.T) {
	g := workload.New(mustSpec(t, "swim"), 1)
	core := New(Config{}, &fixedMem{latency: 5})
	var boundary int64
	runMeasured(core, g, 25_000, 1_000, true, func(cy int64) { boundary = cy })
	if boundary != 25_000 {
		t.Errorf("boundary cycle = %d, want 25000 (1 cycle/instruction)", boundary)
	}
}

// Both engines execute the same per-access semantics during warmup: the
// measured window's event counters (instruction mix, mispredicts) and the
// total number of memory-hierarchy accesses must be identical; only
// cycle-derived quantities may differ.
func TestFastWarmupEventCountersMatchFull(t *testing.T) {
	const warmup, measure = 40_000, 20_000
	run := func(fast bool) (Result, uint64) {
		g := workload.New(mustSpec(t, "gzip"), 9)
		mem := &fixedMem{latency: 8}
		return runMeasured(New(Config{}, mem), g, warmup, measure, fast, nil), mem.accesses
	}
	rFull, accFull := run(false)
	rFast, accFast := run(true)
	if rFast.Instructions != rFull.Instructions ||
		rFast.Loads != rFull.Loads ||
		rFast.Stores != rFull.Stores ||
		rFast.Branches != rFull.Branches ||
		rFast.BranchMispredicts != rFull.BranchMispredicts {
		t.Errorf("measured event counters diverged:\nfull %+v\nfast %+v", rFull, rFast)
	}
	if accFast != accFull {
		t.Errorf("memory accesses: fast %d, full %d", accFast, accFull)
	}
	if rFast.Cycles <= 0 || rFast.IPC <= 0 {
		t.Errorf("measured window has no timing: %+v", rFast)
	}
}

// Fast-forwarded runs are deterministic: identical workload and seed give a
// bit-identical Result.
func TestFastForwardDeterministic(t *testing.T) {
	run := func() Result {
		g := workload.New(mustSpec(t, "mcf"), 11)
		return runMeasured(New(Config{}, &fixedMem{latency: 12}), g, 30_000, 10_000, true, nil)
	}
	if r1, r2 := run(), run(); r1 != r2 {
		t.Errorf("non-deterministic fast runs:\n%+v\n%+v", r1, r2)
	}
}

// The functional engine cannot be entered once the cycle-accurate pipeline
// has produced timing state.
func TestFastForwardPanicsOnUsedCore(t *testing.T) {
	core := New(Config{}, &fixedMem{latency: 1})
	runScript(core, []workload.Inst{{Class: workload.IntALU}}, 100)
	defer func() {
		if recover() == nil {
			t.Error("FastForwardTo on a used core did not panic")
		}
	}()
	core.FastForwardTo(&scriptGen{insts: []workload.Inst{{Class: workload.IntALU}}}, 200)
}

// AdvanceTo during an unsealed fast-forward must panic rather than mix
// engines; after sealing it proceeds.
func TestAdvanceToRequiresSeal(t *testing.T) {
	gen := &scriptGen{insts: []workload.Inst{{Class: workload.IntALU}}}
	core := New(Config{}, &fixedMem{latency: 1})
	core.FastForwardTo(gen, 100)
	if c := core.Cycle(); c != 100 {
		t.Fatalf("cycle = %d after FastForwardTo(100), want the functional clock 100", c)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceTo during fast-forward did not panic")
			}
		}()
		core.AdvanceTo(gen, 200)
	}()
	core.SealFastForward()
	core.AdvanceTo(gen, 200)
	if r := core.Finish(); r.Instructions != 200 {
		t.Errorf("instructions = %d, want 200", r.Instructions)
	}
}

// SealFastForward is a no-op on a core that never fast-forwarded, and a
// fast-forward target at or below the current position does nothing.
func TestSealAndTargetNoOps(t *testing.T) {
	core := New(Config{}, &fixedMem{latency: 1})
	core.SealFastForward() // must not panic or disturb a fresh core
	gen := &scriptGen{insts: []workload.Inst{{Class: workload.IntALU}}}
	core.FastForwardTo(gen, 50)
	core.FastForwardTo(gen, 50)
	core.FastForwardTo(gen, 10)
	core.SealFastForward()
	core.AdvanceTo(gen, 60)
	if r := core.Finish(); r.Instructions != 60 {
		t.Errorf("instructions = %d, want 60", r.Instructions)
	}
}
