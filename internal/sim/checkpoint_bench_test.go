package sim

import "testing"

// Same-binary checkpoint codec benchmarks on the image a warm-forked grid
// forks every point from: swim warmed under the no-prefetch baseline on
// the functional engine, checkpointed at the warmup/measure boundary.
// perfbench times one encode and one decode per benchmark inside the
// grid workload, where they spread by a factor of two between runs of
// one binary; a loop of them here resolves a codec change of a few
// percent. Time is reported only.

// warmImageMachine returns a machine stopped at the warm-fork boundary,
// its config, and its image.
func warmImageMachine(b *testing.B) (*Machine, Config, []byte) {
	b.Helper()
	cfg := Config{Instructions: 100_000, Warmup: 200_000, Seed: 1,
		WarmupFidelity: FidelityFast, BaselineWarmup: true}
	m := mustMachine(b, "swim", NoPrefetch(), cfg)
	m.RunTo(cfg.Warmup)
	img, err := m.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	return m, cfg, img
}

func BenchmarkCheckpointEncode(b *testing.B) {
	m, _, img := warmImageMachine(b)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDecode restores the image into a fresh machine per
// iteration, as a warm fork does; building the machine is not timed.
func BenchmarkCheckpointDecode(b *testing.B) {
	_, cfg, img := warmImageMachine(b)
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := mustMachine(b, "swim", TCP8K(), cfg)
		b.StartTimer()
		if err := m.RestoreImage(img); err != nil {
			b.Fatal(err)
		}
	}
}
