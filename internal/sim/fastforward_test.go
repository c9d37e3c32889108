package sim

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"tagprefetch/internal/cache"
)

// fastEquivTol bounds the boundary in-flight transient on the
// fidelity-dependent counters. Most bench x config combinations diverge by
// at most a handful of events; the outlier is the heavily aliased 2 KB PHT,
// whose prediction stream amplifies the transient to ~50 events on windows
// of tens of thousands.
const fastEquivTol = 64

// fastDemandTol bounds the demand-side tier. The two engines replay the
// same access stream against the same table contents, so demand counters
// agree to within the engine-switch transient: the cycle-accurate engine
// reaches the boundary with a congested pipeline and interconnect, the
// sealed functional engine restarts clean, and for the first few hundred
// measured cycles the two timelines are phase-shifted. One MSHR
// merge-window edge falling inside that window flips a single
// merge-versus-refill decision (observed: +-1 hit/miss, +-2 fills on
// swim; mcf and equake are exact). This is the same switch-transient a
// gem5 atomic-to-timing core switch exhibits.
const fastDemandTol = 4

// fastIPCTol bounds the relative measured-window IPC gap between the two
// fidelities. This is the regression test for the timing caveat: bus
// queueing or fill completions computed against the functional clock must
// not leak stalls into the cycle-accurate measured window (the bug class
// memsys.Quiesce exists for — unquiesced, mcf's measured IPC came out 34%
// low). Only warmup-phase IPC is fidelity-dependent.
const fastIPCTol = 0.02

func delta(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// compareCache checks one cache level of the fidelity contract. Demand-side
// counters are held to demandTol (fastDemandTol for the L1; the L2 also
// absorbs the one-line content transient, so it gets fastEquivTol
// throughout); prefetch-coupled counters get fastEquivTol.
func compareCache(t *testing.T, label string, full, fast cache.Stats, demandTol uint64) {
	t.Helper()
	for _, c := range []struct {
		name       string
		full, fast uint64
		tol        uint64
	}{
		{"Accesses", full.Accesses, fast.Accesses, demandTol},
		{"Hits", full.Hits, fast.Hits, demandTol},
		{"Misses", full.Misses, fast.Misses, demandTol},
		{"HitsOnPrefetch", full.HitsOnPrefetch, fast.HitsOnPrefetch, demandTol},
		{"Fills", full.Fills, fast.Fills, demandTol},
		{"Evictions", full.Evictions, fast.Evictions, demandTol},
		{"PrefetchFills", full.PrefetchFills, fast.PrefetchFills, fastEquivTol},
		{"Writebacks", full.Writebacks, fast.Writebacks, fastEquivTol},
		// LateHits and UnusedPrefetchEvicted are deliberately absent: the
		// former counts hits that catch an in-flight fill (pure timing), the
		// latter attributes evictions to prefetch lines whose demand touch
		// the warmup clock shifted — both fidelity-dependent, not bounded
		// boundary transients.
	} {
		if delta(c.full, c.fast) > c.tol {
			t.Errorf("%s: %s transient exceeds tolerance %d: full=%d fast=%d",
				label, c.name, c.tol, c.full, c.fast)
		}
	}
}

// fastEquivCases spans the Figure 13 sweep shapes (PHT sizes and miss-index
// bits), the fixed-point organisations, and the baseline. The hybrid and
// critical-filter wrappers are deliberately absent: their training consumes
// cycle-level signals (dead-block live times, load-to-use latencies) that the
// functional engine does not produce, so they are outside the fast-warmup
// contract (docs/FASTFORWARD.md).
func fastEquivCases() []struct {
	label string
	f     Factory
} {
	return []struct {
		label string
		f     Factory
	}{
		{"none", NoPrefetch()},
		{"tcp-8K", TCP8K()},
		{"tcp-8M", TCP8M()},
		{"tcp-2K-n0", TCPWithPHT(2<<10, 0, false)},
		{"tcp-8K-n2", TCPWithPHT(8<<10, 2, false)},
		{"tcp-512K-n10", TCPWithPHT(512<<10, 10, false)},
		{"dbcp-2M", DBCP2M()},
		{"stride", Stride()},
	}
}

// TestFastWarmupMeasuredEquivalence pins the fast-forward fidelity contract
// (docs/FASTFORWARD.md), in three tiers.
//
// Bit-identical: the measured instruction mix, branch mispredicts, demand
// accesses, and the prefetcher storage accounting — properties of the
// replayed stream and the configuration, independent of either engine's
// clock.
//
// Demand tier (fastDemandTol): L1 hits/misses/fills, L2 demand traffic,
// and MSHR merges. Both engines evolve table contents with identical
// per-access semantics, so these agree except for the engine-switch
// transient at the boundary (see fastDemandTol) — at most a couple of
// events, and exactly zero on mcf and equake.
//
// Bounded transient (fastEquivTol): counters touched by the in-flight
// window (the fast clock runs at one cycle per instruction, so fills span
// more instructions than under the cycle-accurate engine). A prefetch
// that is dropped as in-flight under one engine but issued under the
// other leaves the L2 one line different at the boundary, shifting the L2
// traffic categories, prefetch tallies, and MSHR counters by a handful of
// events.
//
// Fidelity-dependent (not compared): warmup-phase cycles and IPC, late-hit
// counts (hits that catch an in-flight fill — pure timing), and the
// unused-prefetch eviction attribution. The *measured-window* IPC is NOT
// in this class: it must agree within fastIPCTol, which is what pins the
// timing caveat to the warmup phase only.
func TestFastWarmupMeasuredEquivalence(t *testing.T) {
	full := Config{Instructions: 150_000, Warmup: 300_000, Seed: 1}
	fast := full
	fast.WarmupFidelity = FidelityFast

	for _, bench := range []string{"swim", "mcf", "equake"} {
		for _, tc := range fastEquivCases() {
			rFull := MustRun(bench, tc.f, full)
			rFast := MustRun(bench, tc.f, fast)
			label := bench + "/" + tc.label

			// Exact: the measured instruction mix.
			if rFull.CPU.Instructions != rFast.CPU.Instructions ||
				rFull.CPU.Loads != rFast.CPU.Loads ||
				rFull.CPU.Stores != rFast.CPU.Stores ||
				rFull.CPU.Branches != rFast.CPU.Branches {
				t.Errorf("%s: measured instruction mix diverged: full=%+v fast=%+v",
					label, rFull.CPU, rFast.CPU)
			}
			// Exact: branch predictor state carries across the boundary.
			if rFull.CPU.BranchMispredicts != rFast.CPU.BranchMispredicts {
				t.Errorf("%s: mispredicts diverged: full=%d fast=%d",
					label, rFull.CPU.BranchMispredicts, rFast.CPU.BranchMispredicts)
			}

			// Memory system: the access count is a stream property and exact;
			// the L1 hit/miss split and demand-side L2 traffic sit in the
			// demand tier; L2 categories, prefetch tallies, and MSHR stalls
			// absorb the bounded in-flight transient.
			mFull, mFast := rFull.Mem, rFast.Mem
			if mFull.Accesses != mFast.Accesses {
				t.Errorf("%s: measured access count diverged: full=%d fast=%d",
					label, mFull.Accesses, mFast.Accesses)
			}
			for _, c := range []struct {
				name       string
				full, fast uint64
				tol        uint64
			}{
				{"L1Hits", mFull.L1Hits, mFast.L1Hits, fastDemandTol},
				{"L1Misses", mFull.L1Misses, mFast.L1Misses, fastDemandTol},
				{"L2Demand", mFull.L2Demand, mFast.L2Demand, fastDemandTol},
				{"MSHRMerges", mFull.MSHRMerges, mFast.MSHRMerges, fastDemandTol},
				{"PrefetchedOriginal", mFull.PrefetchedOriginal, mFast.PrefetchedOriginal, fastEquivTol},
				{"NonPrefetchedOriginal", mFull.NonPrefetchedOriginal, mFast.NonPrefetchedOriginal, fastEquivTol},
				{"PrefetchedExtra", mFull.PrefetchedExtra, mFast.PrefetchedExtra, fastEquivTol},
				{"L2Hits", mFull.L2Hits, mFast.L2Hits, fastEquivTol},
				{"L2Misses", mFull.L2Misses, mFast.L2Misses, fastEquivTol},
				{"PrefetchIssued", mFull.PrefetchIssued, mFast.PrefetchIssued, fastEquivTol},
				{"PrefetchDropped", mFull.PrefetchDropped, mFast.PrefetchDropped, fastEquivTol},
				{"PrefetchFills", mFull.PrefetchFills, mFast.PrefetchFills, fastEquivTol},
				{"PrefetchToL1Fills", mFull.PrefetchToL1Fills, mFast.PrefetchToL1Fills, fastEquivTol},
				{"PrefetchL1Rejected", mFull.PrefetchL1Rejected, mFast.PrefetchL1Rejected, fastEquivTol},
				{"MSHRStalls", mFull.MSHRStalls, mFast.MSHRStalls, fastEquivTol},
			} {
				if delta(c.full, c.fast) > c.tol {
					t.Errorf("%s: Mem.%s transient exceeds tolerance %d: full=%d fast=%d",
						label, c.name, c.tol, c.full, c.fast)
				}
			}

			// The demand-side L1 cache picture is held to the demand tier;
			// the in-flight observers (late hits, boundary-straddling
			// writebacks, unused-prefetch attribution) may wobble within
			// the loose tolerance or are skipped outright.
			compareCache(t, label+" L1", rFull.L1, rFast.L1, fastDemandTol)
			// The L2 additionally absorbs the one-line content transient, so
			// its whole counter set uses the loose tolerance.
			compareCache(t, label+" L2", rFull.L2, rFast.L2, fastEquivTol)

			if rFull.PrefetcherStorageBits != rFast.PrefetcherStorageBits {
				t.Errorf("%s: storage bits diverged", label)
			}

			// The timing caveat is warmup-only: the measured window runs
			// cycle-accurate from a quiesced boundary under both fidelities,
			// so its IPC must agree within fastIPCTol (the engine-switch
			// transient and late-hit timing shifts are all that remain).
			if f, g := rFull.CPU.IPC, rFast.CPU.IPC; g <= 0 || math.Abs(f-g) > fastIPCTol*f {
				t.Errorf("%s: measured IPC diverged beyond %.0f%%: full=%.4f fast=%.4f",
					label, 100*fastIPCTol, f, g)
			}
		}
	}
}

// TestFastWarmupIsFaster is the timing half of the contract: skipping
// per-cycle pipeline bookkeeping must actually buy time. The margin is
// generous (fast merely must not be slower); the benchmark quantifies the
// real speedup. Each run is timed by the CPU time of the OS thread it runs
// on, so other packages' tests competing for the host's cores do not
// count, as they would in wall-clock time. Each engine runs three times in
// alternating order, so neither always runs first on cold caches, and the
// minimums are compared: host noise only ever adds time.
func TestFastWarmupIsFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	full := Config{Instructions: 50_000, Warmup: 2_000_000, Seed: 1}
	fast := full
	fast.WarmupFidelity = FidelityFast
	cfgs := [2]Config{full, fast}

	var best [2]time.Duration // indexed like cfgs
	for round := 0; round < 3; round++ {
		for k := 0; k < 2; k++ {
			e := k ^ (round & 1) // full first on even rounds, fast first on odd
			start := threadCPU()
			MustRun("swim", TCP8K(), cfgs[e])
			if d := threadCPU() - start; best[e] == 0 || d < best[e] {
				best[e] = d
			}
		}
	}
	if best[1] >= best[0] {
		t.Errorf("fast warmup (best %v) not faster than full (best %v)", best[1], best[0])
	}
}

// TestCrossFidelityRestoreRejected pins satellite 4: a boundary image saved
// under one warmup fidelity must not restore into a machine configured for
// the other — the pipeline state a fast image carries (a quiesced pipeline
// at the functional clock) means different downstream timing, so silently
// accepting it would break the restore-equals-uninterrupted guarantee.
func TestCrossFidelityRestoreRejected(t *testing.T) {
	base := Config{Instructions: 20_000, Warmup: 40_000, Seed: 1}

	for _, tc := range []struct {
		label      string
		save, load Fidelity
	}{
		{"fast image into full machine", FidelityFast, FidelityFull},
		{"full image into fast machine", FidelityFull, FidelityFast},
	} {
		saveCfg := base
		saveCfg.WarmupFidelity = tc.save
		m := mustMachine(t, "swim", TCP8K(), saveCfg)
		m.RunTo(base.Warmup)
		img, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}

		loadCfg := base
		loadCfg.WarmupFidelity = tc.load
		m2 := mustMachine(t, "swim", TCP8K(), loadCfg)
		err = m2.RestoreImage(img)
		var fm *FidelityMismatchError
		if !errors.As(err, &fm) {
			t.Fatalf("%s: got %v, want *FidelityMismatchError", tc.label, err)
		}
		if fm.Checkpoint != tc.save || fm.Machine != tc.load {
			t.Errorf("%s: error fields %+v, want checkpoint=%s machine=%s",
				tc.label, fm, tc.save, tc.load)
		}
	}
}

// TestFastCheckpointResumesExactly extends the restore-equals-uninterrupted
// guarantee to the fast engine: a mid-warmup fast checkpoint restored into
// an identically configured machine finishes with a bit-identical Result.
func TestFastCheckpointResumesExactly(t *testing.T) {
	cfg := Config{Instructions: 20_000, Warmup: 60_000, Seed: 1,
		WarmupFidelity: FidelityFast}

	uninterrupted := mustMachine(t, "mcf", TCP8K(), cfg).Run()

	m2 := mustMachine(t, "mcf", TCP8K(), cfg)
	m2.RunTo(30_000) // mid-warmup, inside the functional phase
	img, err := m2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m3 := mustMachine(t, "mcf", TCP8K(), cfg)
	if err := m3.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	if resumed := m3.Run(); resumed != uninterrupted {
		t.Errorf("resumed fast run diverged:\nresumed       %+v\nuninterrupted %+v",
			resumed, uninterrupted)
	}
}

// BenchmarkWarmupFidelity quantifies the fast engine's end-to-end win at the
// default experiment scale (2M warmup, 1M measured, one benchmark).
func BenchmarkWarmupFidelity(b *testing.B) {
	for _, tc := range []struct {
		name string
		fid  Fidelity
	}{
		{"full", FidelityFull},
		{"fast", FidelityFast},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := Config{Instructions: 1_000_000, Warmup: 2_000_000, Seed: 1,
				WarmupFidelity: tc.fid}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MustRun("swim", TCP8K(), cfg)
			}
		})
	}
}
