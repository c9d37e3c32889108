package sim

import "testing"

// machineSink keeps the benchmarked machines live.
var machineSink *Machine

// BenchmarkNewMachine times building one machine, the set-up perfbench's
// miss-heavy workload reports as setup_s (there, mcf's and swim's machines
// together): TCP-8K at a window of 1 M measured instructions after a 500 k
// warmup. mcf builds a chase cycle of 65,536 blocks; swim has none.
func BenchmarkNewMachine(b *testing.B) {
	cfg := Config{Instructions: 1_000_000, Warmup: 500_000, Seed: 1}
	for _, bench := range []string{"mcf", "swim"} {
		b.Run(bench, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machineSink = mustMachine(b, bench, TCP8K(), cfg)
			}
		})
	}
}
