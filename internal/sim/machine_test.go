package sim

import (
	"bytes"
	"testing"

	"tagprefetch/internal/workload"
)

func testConfig() Config {
	return Config{Instructions: 30_000, Warmup: 60_000, Seed: 1}
}

func mustMachine(t testing.TB, bench string, f Factory, cfg Config) *Machine {
	t.Helper()
	spec, err := workload.Spec2000(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(spec, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMachineRunMatchesMustRun: a Machine built and run by hand is the
// same simulation as MustRun.
func TestMachineRunMatchesMustRun(t *testing.T) {
	cfg := testConfig()
	want := MustRun("mcf", TCP8K(), cfg)
	got := mustMachine(t, "mcf", TCP8K(), cfg).Run()
	if got != want {
		t.Errorf("Machine.Run = %+v, want %+v", got, want)
	}
}

// TestCheckpointRoundTripPerScheme saves mid-run, restores into a fresh
// machine, and requires the continued run to be bit-identical to the
// uninterrupted one — once per prefetcher scheme, so every component
// Snapshotter (caches, MSHRs, buses, TCP/DBCP/stride/stream/Markov/GHB
// tables, dead-block state, workload streams, RNG) round-trips.
func TestCheckpointRoundTripPerScheme(t *testing.T) {
	cfg := testConfig()
	for _, f := range []Factory{
		NoPrefetch(), TCP8K(), Hybrid8K(), DBCP2M(), Stride(),
		StreamBuffers(), Markov(), NextLine(), GHB(),
		TCPWithPHT(8<<10, 2, true), WithCriticalFilter(TCP8K()),
		AtL2Boundary(Stride()),
	} {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			want := MustRun("mcf", f, cfg)
			// Save both before and after the warmup/measure boundary.
			for _, at := range []uint64{cfg.Warmup / 2, cfg.Warmup + cfg.Instructions/2} {
				m := mustMachine(t, "mcf", f, cfg)
				m.RunTo(at)
				img, err := m.Checkpoint()
				if err != nil {
					t.Fatalf("Checkpoint at %d: %v", at, err)
				}
				m2 := mustMachine(t, "mcf", f, cfg)
				if err := m2.RestoreImage(img); err != nil {
					t.Fatalf("RestoreImage at %d: %v", at, err)
				}
				if m2.Position() != at {
					t.Fatalf("Position after restore = %d, want %d", m2.Position(), at)
				}
				// Re-checkpointing immediately must reproduce the image
				// byte for byte: the restore lost nothing.
				img2, err := m2.Checkpoint()
				if err != nil {
					t.Fatalf("re-Checkpoint at %d: %v", at, err)
				}
				if !bytes.Equal(img, img2) {
					t.Fatalf("re-checkpointed image differs at %d", at)
				}
				if got := m2.Run(); got != want {
					t.Errorf("restored run at %d = %+v, want %+v", at, got, want)
				}
			}
		})
	}
}

// TestCheckpointRoundTripPredictors covers each branch predictor Snapshotter
// through the machine path.
func TestCheckpointRoundTripPredictors(t *testing.T) {
	preds := map[string]string{
		"static":    "always-taken",
		"bimodal":   "bimodal",
		"gshare":    "gshare",
		"pag":       "PAg",
		"combining": "combining",
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.CPU.Predictor = pred
			want := MustRun("swim", TCP8K(), cfg)

			m := mustMachine(t, "swim", TCP8K(), cfg)
			m.RunTo(cfg.Warmup / 2)
			img, err := m.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			m2 := mustMachine(t, "swim", TCP8K(), cfg)
			if err := m2.RestoreImage(img); err != nil {
				t.Fatal(err)
			}
			if got := m2.Run(); got != want {
				t.Errorf("restored run = %+v, want %+v", got, want)
			}
		})
	}
}

// TestWarmForkBitIdentical: under BaselineWarmup, forking any config from
// the shared no-prefetch warm checkpoint equals running that config cold.
func TestWarmForkBitIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.BaselineWarmup = true

	warm := mustMachine(t, "mcf", NoPrefetch(), cfg)
	warm.RunTo(cfg.Warmup)
	img, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range []Factory{NoPrefetch(), TCP8K(), TCP8M(), DBCP2M(), Hybrid8K()} {
		cold := MustRun("mcf", f, cfg)
		m := mustMachine(t, "mcf", f, cfg)
		if err := m.RestoreImage(img); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if got := m.Run(); got != cold {
			t.Errorf("%s: forked = %+v, cold = %+v", f.Name, got, cold)
		}
	}
}

// TestRestoreRejectsMismatch: a checkpoint only restores into a machine with
// the same identity.
func TestRestoreRejectsMismatch(t *testing.T) {
	cfg := testConfig()
	m := mustMachine(t, "mcf", TCP8K(), cfg)
	m.RunTo(cfg.Warmup / 2)
	img, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		bench string
		cfg   Config
	}{
		{"different bench", "swim", cfg},
		{"different seed", "mcf", Config{Instructions: cfg.Instructions, Warmup: cfg.Warmup, Seed: 2}},
		{"different warmup", "mcf", Config{Instructions: cfg.Instructions, Warmup: cfg.Warmup * 2, Seed: 1}},
	}
	for _, tc := range cases {
		m2 := mustMachine(t, tc.bench, TCP8K(), tc.cfg)
		if err := m2.RestoreImage(img); err == nil {
			t.Errorf("%s: restore succeeded", tc.name)
		}
	}

	// Arbitrary bytes fail cleanly.
	m2 := mustMachine(t, "mcf", TCP8K(), cfg)
	if err := m2.RestoreImage([]byte("not a checkpoint")); err == nil {
		t.Error("restore of garbage succeeded")
	}

	// A machine that has already run does not accept a restore.
	m3 := mustMachine(t, "mcf", TCP8K(), cfg)
	m3.RunTo(100)
	if err := m3.RestoreImage(img); err == nil {
		t.Error("restore into a running machine succeeded")
	}
}

// TestCheckpointSharedAcrossMeasureLengths: the machine identity excludes
// the measured-instruction count, so one warm image forks into grid points
// of different lengths.
func TestCheckpointSharedAcrossMeasureLengths(t *testing.T) {
	cfg := testConfig()
	cfg.BaselineWarmup = true
	warm := mustMachine(t, "swim", NoPrefetch(), cfg)
	warm.RunTo(cfg.Warmup)
	img, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	longCfg := cfg
	longCfg.Instructions = cfg.Instructions * 2
	want := MustRun("swim", TCP8K(), longCfg)
	m := mustMachine(t, "swim", TCP8K(), longCfg)
	if err := m.RestoreImage(img); err != nil {
		t.Fatal(err)
	}
	if got := m.Run(); got != want {
		t.Errorf("forked long run = %+v, want %+v", got, want)
	}
}
