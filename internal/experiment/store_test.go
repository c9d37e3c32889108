package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/sim"
)

func storeJobs() []Job {
	cfg := sim.Config{Instructions: 8_000, Warmup: 16_000, Seed: 1}
	benches := []string{"mcf", "swim"}
	fs := []sim.Factory{sim.TCP8K(), sim.Stride()}
	return append(BaselineJobs(benches, cfg), GridJobs(benches, fs, cfg)...)
}

// TestResultStoreKillAndResume simulates a sweep killed mid-grid: the first
// pass records manifests, one manifest is deleted (the "unfinished" job),
// and a resumed runner must complete the grid with results identical to the
// uninterrupted run.
func TestResultStoreKillAndResume(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()

	store1, err := NewResultStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(2)
	r1.SetResultStore(store1)
	full := r1.Map(jobs)

	names, err := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no manifests written (err=%v)", err)
	}
	if len(names) != len(jobs) {
		t.Fatalf("manifests = %d, want %d", len(names), len(jobs))
	}
	// Kill: one job never completed.
	if err := os.Remove(names[0]); err != nil {
		t.Fatal(err)
	}

	store2, err := NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(2)
	r2.SetResultStore(store2)
	resumed := r2.Map(jobs)
	for i := range jobs {
		if resumed[i] != full[i] {
			t.Errorf("job %d (%s): resumed = %+v, full = %+v",
				i, jobs[i].Bench, resumed[i], full[i])
		}
	}

	// A fully-populated resume answers everything from disk: the baseline
	// coalescer never simulates.
	r3 := NewRunner(2)
	store3, err := NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	r3.SetResultStore(store3)
	again := r3.Map(jobs)
	for i := range jobs {
		if again[i] != full[i] {
			t.Errorf("job %d: second resume differs", i)
		}
	}
	if simulated, _ := r3.BaselineStats(); simulated != 0 {
		t.Errorf("full resume simulated %d baselines, want 0", simulated)
	}
}

// TestResultStoreWithoutResumeIgnoresManifests: resume off means the store
// only records; existing manifests are not consulted.
func TestResultStoreWithoutResumeIgnoresManifests(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()
	store, err := NewResultStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1)
	r.SetResultStore(store)
	r.Map(jobs[:1])
	if res, ok := store.Lookup(jobs[0].Bench, sim.NoPrefetch().Name, true, jobs[0].Config); ok {
		t.Errorf("Lookup hit with resume off: %+v", res)
	}
}

// TestResultStoreIdentityMismatch: a manifest whose identity echo does not
// match the requested job is rejected instead of trusted.
func TestResultStoreIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	jobs := storeJobs()
	j := jobs[len(jobs)-1] // a grid job
	store, err := NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.MustRun(j.Bench, j.Factory, j.Config)
	store.Save(j.Bench, j.Factory.Name, false, j.Config, res)

	// Overwrite the manifest body with a different bench's identity.
	names, _ := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if len(names) != 1 {
		t.Fatalf("manifests = %d, want 1", len(names))
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	munged := strings.Replace(string(data), j.Bench, "applu", 1)
	if err := os.WriteFile(names[0], []byte(munged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Lookup(j.Bench, j.Factory.Name, false, j.Config); ok {
		t.Error("Lookup accepted a manifest with a mismatched identity")
	}

}
