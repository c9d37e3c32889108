package sim

import "testing"

// Same-binary checkpoint codec benchmarks. perfbench times one encode and
// one decode per benchmark inside the grid workload, where they spread by
// a factor of two between runs of one binary; a loop of them here
// resolves a codec change of a few percent. Time is reported only.
//
// Each case is an image at the warmup/measure boundary (functional
// warmup):
//   - baseline: the image a warm-forked grid forks every point from, swim
//     warmed under the no-prefetch baseline, restored into a TCP-8K
//     machine;
//   - tcp-8M: mcf warmed under TCP-8M, whose trained PHT sets are most
//     of the image, restored into a TCP-8M machine.
var checkpointBenchCases = []struct {
	name, bench string
	warm, into  Factory
	baseline    bool
}{
	{"baseline", "swim", NoPrefetch(), TCP8K(), true},
	{"tcp-8M", "mcf", TCP8M(), TCP8M(), false},
}

// warmImageMachine returns a machine running f on bench, stopped at the
// warmup/measure boundary, its config, and its image.
func warmImageMachine(b *testing.B, bench string, f Factory, baseline bool) (*Machine, Config, []byte) {
	b.Helper()
	cfg := Config{Instructions: 100_000, Warmup: 200_000, Seed: 1,
		WarmupFidelity: FidelityFast, BaselineWarmup: baseline}
	m := mustMachine(b, bench, f, cfg)
	m.RunTo(cfg.Warmup)
	img, err := m.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	return m, cfg, img
}

func BenchmarkCheckpointEncode(b *testing.B) {
	for _, bc := range checkpointBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			m, _, img := warmImageMachine(b, bc.bench, bc.warm, bc.baseline)
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointDecode restores the image into a fresh machine per
// iteration, as a warm fork does; building the machine is not timed.
func BenchmarkCheckpointDecode(b *testing.B) {
	for _, bc := range checkpointBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			_, cfg, img := warmImageMachine(b, bc.bench, bc.warm, bc.baseline)
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := mustMachine(b, bc.bench, bc.into, cfg)
				b.StartTimer()
				if err := m.RestoreImage(img); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
