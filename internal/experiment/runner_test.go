package experiment

import (
	"strings"
	"sync/atomic"
	"testing"

	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// TestRunnerDeterminism pins the tentpole guarantee: a parallel runner
// produces byte-identical tables and series to the strictly serial one.
func TestRunnerDeterminism(t *testing.T) {
	serial, parallel := tiny(), tiny()
	serial.Jobs = 1
	parallel.Jobs = 8

	if got, want := Fig11IPC(parallel).String(), Fig11IPC(serial).String(); got != want {
		t.Errorf("Fig11 differs between -jobs 8 and -jobs 1:\n--- parallel ---\n%s--- serial ---\n%s", got, want)
	}
	if got, want := Fig14Hybrid(parallel).String(), Fig14Hybrid(serial).String(); got != want {
		t.Errorf("Fig14 differs between -jobs 8 and -jobs 1:\n%s\nvs\n%s", got, want)
	}

	ss, ps := serial, parallel
	ss.Benches, ps.Benches = []string{"art", "swim"}, []string{"art", "swim"}
	sSer, sPar := Fig13IndexBits(ss), Fig13IndexBits(ps)
	if sSer.String() != sPar.String() {
		t.Errorf("Fig13b differs:\n%s\nvs\n%s", sPar.String(), sSer.String())
	}
}

// TestRunnerMemoSpansFigures: one store-less runner renders Figures 11,
// 12 and 14, simulating each distinct point once, and every table equals
// the one a fresh runner renders for that figure alone. Figure 12 repeats
// Figure 11's TCP-8K and TCP-8M points, Figure 14 its baseline and TCP-8K:
// five distinct points per bench.
func TestRunnerMemoSpansFigures(t *testing.T) {
	shared := tiny()
	shared.Runner = NewRunner(2)
	figs := []struct {
		name string
		run  func(Options) *stats.Table
	}{{"fig11", Fig11IPC}, {"fig12", Fig12Traffic}, {"fig14", Fig14Hybrid}}
	for _, fig := range figs {
		alone := tiny()
		alone.Runner = NewRunner(2)
		if got, want := fig.run(shared).String(), fig.run(alone).String(); got != want {
			t.Errorf("%s through the shared runner differs from a fresh runner's:\n%s\nvs\n%s", fig.name, got, want)
		}
	}
	n := uint64(len(tiny().Benches))
	simulated, reused := shared.Runner.MemoStats()
	if simulated != 5*n || reused != 4*n {
		t.Errorf("memo: %d simulated, %d reused; want %d, %d", simulated, reused, 5*n, 4*n)
	}
}

// TestRunnerBaselineCacheKeySplitsOnConfig: different machine configs must
// not collapse onto one cache entry.
func TestRunnerBaselineCacheKeySplitsOnConfig(t *testing.T) {
	r := NewRunner(2)
	cfg := sim.Config{Instructions: 30_000, Warmup: 60_000}
	ideal := cfg
	ideal.Mem.IdealL2 = true

	a := r.Map(BaselineJobs([]string{"art"}, cfg))[0]
	b := r.Map(BaselineJobs([]string{"art"}, ideal))[0]
	if simulated, _ := r.MemoStats(); simulated != 2 {
		t.Errorf("baseline simulations = %d, want 2 (distinct configs)", simulated)
	}
	if a.CPU.Cycles == b.CPU.Cycles {
		t.Error("ideal-L2 baseline returned the non-ideal result (cache collision)")
	}

	// Equivalent spellings of the same config (explicit defaults vs zero
	// fields) must share an entry.
	explicit := sim.Config{Instructions: 30_000, Warmup: 60_000, Seed: 1}
	r.Map(BaselineJobs([]string{"art"}, explicit))
	if simulated, _ := r.MemoStats(); simulated != 2 {
		t.Errorf("normalised config missed the memo: %d simulations", simulated)
	}
}

// TestRunnerPanicPropagates: MustRun semantics survive the pool — a bad
// job's panic resurfaces on the calling goroutine.
func TestRunnerPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected the unknown-benchmark panic to propagate")
		}
	}()
	NewRunner(4).Map([]Job{
		{Bench: "art", Factory: sim.NoPrefetch(), Config: sim.Config{Instructions: 10_000, Warmup: 5_000}},
		{Bench: "no-such-bench", Factory: sim.NoPrefetch(), Config: sim.Config{Instructions: 10_000, Warmup: 5_000}},
	})
}

// TestForEachCoversAllIndices: every index runs exactly once, at any width.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		r := NewRunner(workers)
		const n = 97
		var counts [n]atomic.Int32
		r.ForEach(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		r.ForEach(0, func(int) { t.Fatal("fn called for n=0") })
	}
}

// TestConcurrentGeomeanAndTracer exercises, under -race, the process-global
// state workers share: the stats.Geomean clamp counter.
func TestConcurrentGeomeanAndTracer(t *testing.T) {
	before := stats.GeomeanClampCount()

	r := NewRunner(8)
	r.ForEach(64, func(i int) {
		// Each iteration clamps exactly one non-positive input.
		stats.Geomean([]float64{0, 1, 2})
	})

	if got := stats.GeomeanClampCount() - before; got != 64 {
		t.Errorf("clamp count advanced by %d, want 64", got)
	}
}

// TestParallelSweepRace runs a small real sweep wide; under `go test -race`
// this checks the full figure path for worker races (shared geomean
// counter, result memo, result collection).
func TestParallelSweepRace(t *testing.T) {
	o := Options{Instructions: 30_000, Warmup: 60_000,
		Benches: []string{"swim", "mcf"}, Jobs: 4}
	s := Fig13IndexBits(o)
	if len(s.Values) != 4 {
		t.Fatalf("points = %d", len(s.Values))
	}
	for i, v := range s.Values {
		if v <= 0 {
			t.Errorf("value[%d] = %v", i, v)
		}
	}
}

// TestPerRunTelemetryIsolationAcrossWorkers: concurrent machines each
// observed by their own telemetry.Run must land their samples and
// registries in their own run, sharing only the (synchronised) tracer —
// the tcpsim -jobs N -json configuration, which fans its benches out
// through ForEach.
func TestPerRunTelemetryIsolationAcrossWorkers(t *testing.T) {
	benches := []string{"swim", "mcf", "art", "gzip"}
	tracer := telemetry.NewTracer(&strings.Builder{}, telemetry.TracerOptions{})
	runs := make([]*telemetry.Run, len(benches))
	results := make([]sim.Result, len(benches))
	// No warmup, so the cumulative registry counters equal the (otherwise
	// warmup-subtracted) Result counters and can be compared directly.
	cfg := sim.Config{Instructions: 30_000, Warmup: 0}
	NewRunner(4).ForEach(len(benches), func(i int) {
		runs[i] = telemetry.NewRun(2_000)
		runs[i].Tracer = tracer
		spec, err := workload.Spec2000(benches[i])
		if err != nil {
			panic(err)
		}
		m, err := sim.NewMachine(spec, sim.TCP8K(), cfg)
		if err != nil {
			panic(err)
		}
		m.Observe(runs[i])
		results[i] = m.Run()
	})
	for i, b := range benches {
		rep := runs[i].Report(b, "tcp-8K", 30_000, 0, 1, results[i].IPC())
		if rep.Benchmark != b {
			t.Errorf("report %d bench = %q", i, rep.Benchmark)
		}
		var cycles float64
		for _, m := range rep.Metrics {
			if m.Name == "cpu.cycles" {
				cycles = m.Value
			}
		}
		if want := float64(results[i].CPU.Cycles); cycles != want {
			t.Errorf("%s: registry cycles %v != result cycles %v (cross-run bleed?)",
				b, cycles, want)
		}
	}
}
