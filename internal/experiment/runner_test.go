package experiment

import (
	"strings"
	"sync"
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

// TestRunnerBaselineCache verifies the memoised baseline: two figures over
// the same benches and config must simulate each bench's no-prefetch point
// exactly once, answering the rest from the cache.
func TestRunnerBaselineCache(t *testing.T) {
	o := tiny()
	o.Runner = NewRunner(4)

	Fig11IPC(o)
	Fig14Hybrid(o)

	simulated, reused := o.Runner.BaselineStats()
	if want := uint64(len(tiny().Benches)); simulated != want {
		t.Errorf("baseline simulations = %d, want %d (one per bench)", simulated, want)
	}
	if want := uint64(len(tiny().Benches)); reused != want {
		t.Errorf("baseline reuses = %d, want %d (second figure fully cached)", reused, want)
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
	if simulated, _ := r.BaselineStats(); simulated != 2 {
		t.Errorf("baseline simulations = %d, want 2 (distinct configs)", simulated)
	}
	if a.CPU.Cycles == b.CPU.Cycles {
		t.Error("ideal-L2 baseline returned the non-ideal result (cache collision)")
	}

	// Equivalent spellings of the same config (explicit defaults vs zero
	// fields) must share an entry.
	explicit := sim.Config{Instructions: 30_000, Warmup: 60_000, Seed: 1}
	r.Map(BaselineJobs([]string{"art"}, explicit))
	if simulated, _ := r.BaselineStats(); simulated != 2 {
		t.Errorf("normalised config missed the cache: %d simulations", simulated)
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
		{Bench: "art", Factory: sim.NoPrefetch(), Config: sim.Config{Instructions: 10_000}},
		{Bench: "no-such-bench", Factory: sim.NoPrefetch(), Config: sim.Config{Instructions: 10_000}},
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
// state workers share: the stats.Geomean clamp counter and the default
// tracer used for its clamp events — including a concurrent SetDefault swap
// as tcpsim's trace setup performs.
func TestConcurrentGeomeanAndTracer(t *testing.T) {
	before := stats.GeomeanClampCount()
	tracer := telemetry.NewTracer(&strings.Builder{}, telemetry.TracerOptions{})
	defer telemetry.SetDefault(nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			telemetry.SetDefault(tracer)
			telemetry.SetDefault(nil)
		}
	}()

	r := NewRunner(8)
	r.ForEach(64, func(i int) {
		// Each iteration clamps exactly one non-positive input and emits a
		// clamp event through whatever default tracer is installed.
		stats.Geomean([]float64{0, 1, 2})
		telemetry.Default().Emit(telemetry.Event{Type: "test.tick", Level: telemetry.LevelInfo})
	})
	wg.Wait()

	if got := stats.GeomeanClampCount() - before; got != 64 {
		t.Errorf("clamp count advanced by %d, want 64", got)
	}
}

// TestParallelSweepRace runs a small real sweep wide; under `go test -race`
// this checks the full figure path for worker races (shared geomean
// counter, baseline cache, result collection).
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
	// NoWarmup so the cumulative registry counters equal the (otherwise
	// warmup-subtracted) Result counters and can be compared directly.
	cfg := sim.Config{Instructions: 30_000, NoWarmup: true}
	NewRunner(4).ForEach(len(benches), func(i int) {
		runs[i] = telemetry.NewRun(2_000)
		runs[i].Tracer = tracer
		m, err := sim.NewMachine(workload.MustSpec2000(benches[i]), sim.TCP8K(), cfg)
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
