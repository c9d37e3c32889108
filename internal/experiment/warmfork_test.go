package experiment

import (
	"testing"

	"tagprefetch/internal/sim"
)

// fig13Grid is a small slice of the Figure 13 design space: PHT sizes
// crossed with miss-index bit counts.
func fig13Grid() []sim.Factory {
	var fs []sim.Factory
	for _, size := range []int{2 << 10, 8 << 10} {
		for _, nbits := range []int{0, 10} {
			fs = append(fs, sim.TCPWithPHT(size, nbits, false))
		}
	}
	return fs
}

// TestWarmForkGridMatchesCold is the acceptance check for warm-fork sweeps:
// every Figure 13 grid point forked from the shared baseline-warmed
// checkpoint must be bit-identical to running that point cold in the same
// BaselineWarmup mode.
func TestWarmForkGridMatchesCold(t *testing.T) {
	cfg := sim.Config{Instructions: 15_000, Warmup: 30_000, Seed: 1, BaselineWarmup: true}
	benches := []string{"mcf", "swim"}
	jobs := GridJobs(benches, fig13Grid(), cfg)

	r := NewRunner(4)
	warm := r.Map(jobs)
	for i, j := range jobs {
		cold := sim.MustRun(j.Bench, j.Factory, j.Config)
		if warm[i] != cold {
			t.Errorf("%s/%s: forked = %+v, cold = %+v", j.Bench, j.Factory.Name, warm[i], cold)
		}
	}
	warmups, forks := r.WarmForkStats()
	if warmups != uint64(len(benches)) {
		t.Errorf("warmups = %d, want one per bench (%d)", warmups, len(benches))
	}
	if forks != uint64(len(jobs)) {
		t.Errorf("forks = %d, want every grid point (%d)", forks, len(jobs))
	}
}

// TestWarmForkPersistedCheckpoints: a second runner pointed at the same
// checkpoint directory forks every point without re-simulating any warmup.
func TestWarmForkPersistedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := sim.Config{Instructions: 10_000, Warmup: 20_000, Seed: 1, BaselineWarmup: true}
	jobs := GridJobs([]string{"mcf"}, fig13Grid(), cfg)

	r1 := NewRunner(2)
	r1.SetCheckpointDir(dir)
	first := r1.Map(jobs)

	r2 := NewRunner(2)
	r2.SetCheckpointDir(dir)
	second := r2.Map(jobs)
	for i := range jobs {
		if first[i] != second[i] {
			t.Errorf("job %d: results differ across runners", i)
		}
	}
	warmups, forks := r2.WarmForkStats()
	if warmups != 0 {
		t.Errorf("second runner simulated %d warmups, want 0 (loaded from disk)", warmups)
	}
	if forks != uint64(len(jobs)) {
		t.Errorf("second runner forks = %d, want %d", forks, len(jobs))
	}
}

// TestWarmForkIneligibleFallsBack: without BaselineWarmup the runner never
// forks and results equal plain cold runs.
func TestWarmForkIneligibleFallsBack(t *testing.T) {
	cfg := sim.Config{Instructions: 10_000, Warmup: 20_000, Seed: 1}
	jobs := GridJobs([]string{"mcf"}, []sim.Factory{sim.TCP8K()}, cfg)
	r := NewRunner(1)
	res := r.Map(jobs)
	if want := sim.MustRun("mcf", sim.TCP8K(), cfg); res[0] != want {
		t.Errorf("result = %+v, want %+v", res[0], want)
	}
	if warmups, forks := r.WarmForkStats(); warmups != 0 || forks != 0 {
		t.Errorf("warm-fork stats = %d/%d, want 0/0", warmups, forks)
	}
}
