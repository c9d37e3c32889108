package sim

import (
	"testing"

	"tagprefetch/internal/trace"
)

// TestObserveMissesCountsMeasuredWindow: under either warmup engine, the
// tap delivers exactly the measured window's demand misses that reach the
// L1/L2 boundary — every L1 miss except those merged into an in-flight
// MSHR — and observing leaves the run itself untouched: its Result is the
// no-prefetch baseline's.
func TestObserveMissesCountsMeasuredWindow(t *testing.T) {
	for _, fid := range []Fidelity{FidelityFull, FidelityFast} {
		for _, bench := range []string{"mcf", "art", "gzip"} {
			cfg := Config{Instructions: 50_000, Warmup: 100_000, WarmupFidelity: fid}
			var n uint64
			res, err := ObserveMisses(bench, cfg, nil, func(trace.Miss) { n++ })
			if err != nil {
				t.Fatal(err)
			}
			if want := res.Mem.L1Misses - res.Mem.MSHRMerges; n != want || n == 0 {
				t.Errorf("%s/%s: delivered %d misses, want L1Misses-MSHRMerges = %d", bench, fid, n, want)
			}
			if base := MustRun(bench, NoPrefetch(), cfg); res != base {
				t.Errorf("%s/%s: observed run diverged from the baseline:\n%+v\n%+v", bench, fid, res, base)
			}
		}
	}
}

// TestObserveMissesNoWarmup: without a warmup the tap is armed from
// instruction 0, so the cold machine's first compulsory misses arrive.
func TestObserveMissesNoWarmup(t *testing.T) {
	cfg := Config{Instructions: 50_000, NoWarmup: true}
	var misses []trace.Miss
	res, err := ObserveMisses("art", cfg, nil, func(m trace.Miss) { misses = append(misses, m) })
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != 50_000 {
		t.Errorf("measured %d instructions, want the whole 50000-instruction run", res.CPU.Instructions)
	}
	if want := res.Mem.L1Misses - res.Mem.MSHRMerges; uint64(len(misses)) != want || want == 0 {
		t.Fatalf("delivered %d misses, want %d", len(misses), want)
	}
	if c := misses[0].Cycle; c > 100 {
		t.Errorf("first miss at cycle %d, want one of the run's first cycles", c)
	}
}

// TestObserveMissesUnknownBenchmark: a bad name is an error, and fn never
// runs.
func TestObserveMissesUnknownBenchmark(t *testing.T) {
	called := false
	if _, err := ObserveMisses("nope", Config{}, nil, func(trace.Miss) { called = true }); err == nil {
		t.Error("expected an error for an unknown benchmark")
	}
	if called {
		t.Error("fn ran for an unknown benchmark")
	}
}
