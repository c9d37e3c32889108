package sim

import (
	"bytes"
	"testing"

	"tagprefetch/internal/workload"
)

// runToEnd finishes m and returns its Result with the final checkpoint
// image, taken at the last instruction before finish moves end-of-run
// accounting.
func runToEnd(t *testing.T, m *Machine) (Result, []byte) {
	t.Helper()
	m.RunTo(m.Total())
	img, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return m.finish(), img
}

// splitRun runs m to k, checkpoints, restores the image into a fresh
// machine from build, and finishes that one.
func splitRun(t *testing.T, k uint64, build func() *Machine) (Result, []byte) {
	t.Helper()
	m := build()
	m.RunTo(k)
	img, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m2 := build()
	if err := m2.RestoreImage(img); err != nil {
		t.Fatalf("restore at %d: %v", k, err)
	}
	return runToEnd(t, m2)
}

// TestCheckpointMidMeasuredWindow pins a checkpoint taken at an arbitrary
// instruction inside the measured window: restoring it and continuing
// finishes with the unsplit run's Result and final image, byte for byte.
func TestCheckpointMidMeasuredWindow(t *testing.T) {
	cfg := Config{Instructions: 40_000, Warmup: 60_000, Seed: 1}
	build := func() *Machine { return mustMachine(t, "mcf", TCP8K(), cfg) }
	unsplitRes, unsplitImg := runToEnd(t, build())
	res, img := splitRun(t, cfg.Warmup+17_000, build)
	if res != unsplitRes {
		t.Errorf("Result diverged from unsplit run:\nresumed %+v\nunsplit %+v", res, unsplitRes)
	}
	if !bytes.Equal(img, unsplitImg) {
		t.Errorf("final checkpoint image diverged from unsplit run")
	}
}

// FuzzCheckpointSplit fuzzes the checkpoint contract over short random
// runs: splitting at a random instruction k, checkpointing, restoring into
// a fresh machine and continuing must equal the unsplit run on both the
// Result and the final image. The space covers MSHR files from 1 entry
// up, the Figure 13 prefetcher shapes, and both warmup fidelities. Wired into CI's
// fuzz-smoke step.
func FuzzCheckpointSplit(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(64), false, uint16(4000), uint16(6000), uint16(5000))
	f.Add(uint64(7), uint8(1), uint8(4), uint8(3), true, uint16(2000), uint16(0), uint16(100))
	f.Add(uint64(42), uint8(2), uint8(7), uint8(1), true, uint16(1000), uint16(500), uint16(900))
	f.Fuzz(func(t *testing.T, seed uint64, benchPick, cfgPick, mshrs uint8, fast bool, n, w, k uint16) {
		benches := []string{"swim", "mcf", "equake"}
		cases := fastEquivCases()
		bench := benches[int(benchPick)%len(benches)]
		factory := cases[int(cfgPick)%len(cases)].f

		cfg := Config{
			Instructions: 500 + uint64(n)%8_000,
			Warmup:       uint64(w) % 8_000,
			Seed:         seed,
		}
		if cfg.Warmup == 0 {
			cfg.NoWarmup = true
		}
		if fast {
			cfg.WarmupFidelity = FidelityFast
		}
		cfg.Mem.MSHRs = 1 + int(mshrs)%96

		spec, err := workload.Spec2000(bench)
		if err != nil {
			t.Fatal(err)
		}
		build := func() *Machine {
			m, err := NewMachine(spec, factory, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		unsplit, unsplitImg := runToEnd(t, build())
		at := uint64(k) % (cfg.Warmup + cfg.Instructions + 1)
		split, splitImg := splitRun(t, at, build)
		if unsplit != split {
			t.Fatalf("split at %d diverged:\nunsplit %+v\nsplit   %+v", at, unsplit, split)
		}
		if !bytes.Equal(unsplitImg, splitImg) {
			t.Fatalf("split at %d: final checkpoint images differ (%d vs %d bytes)", at, len(unsplitImg), len(splitImg))
		}
	})
}
