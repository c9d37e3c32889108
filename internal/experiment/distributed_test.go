package experiment

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/sim"
)

// The distributed-sweep acceptance suite: in-process workers share one
// checkpoint directory and split the Figure 13 (bottom) grid, with injected
// crashes at each point of the claim-execute-publish path. The invariant
// under test is the one docs/DISTRIBUTED.md promises: whatever workers
// crash, the survivors finish the grid, no result is lost or duplicated,
// every worker's rendered output is byte-identical to a serial run, and a
// strict -gather pass re-renders the same bytes from manifests alone.

// distTTL is deliberately short so stale-lease steals happen quickly on the
// system clock; production default is 30s.
const distTTL = 150 * time.Millisecond

func fig13Options(r *Runner) Options {
	return Options{Instructions: 8_000, Warmup: 16_000, Seed: 1,
		Benches: []string{"swim", "mcf"}, Runner: r}
}

// fig13Serial renders the reference output on a plain single-worker runner
// with no stores attached.
func fig13Serial(t *testing.T) string {
	t.Helper()
	return Fig13IndexBits(fig13Options(NewRunner(1))).String()
}

type workerOutcome struct {
	out     string
	crashed bool
	stats   distrib.Stats
}

// runFig13Worker runs one in-process distributed worker to completion (or
// injected crash). Each worker gets its own runner, result store, and lease
// store — exactly the state separation distinct OS processes would have;
// only the directory is shared.
func runFig13Worker(t *testing.T, dir, id string, fail func(p distrib.Point, job string) bool) workerOutcome {
	t.Helper()
	store, err := NewResultStore(dir, true)
	if err != nil {
		t.Errorf("worker %s: %v", id, err)
		return workerOutcome{}
	}
	claims, err := distrib.NewStore(dir, id, distTTL, nil)
	if err != nil {
		t.Errorf("worker %s: %v", id, err)
		return workerOutcome{}
	}
	if fail != nil {
		f := &distrib.Faults{}
		f.SetFail(fail)
		claims.SetFaults(f)
		store.SetFaults(f)
	}
	r := NewRunner(1)
	r.SetResultStore(store)
	r.SetClaims(claims)

	var o workerOutcome
	func() {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(*distrib.Crash); ok {
					// The injected kill: the worker goroutine dies here with
					// its lease abandoned on disk, like a SIGKILLed process.
					o.crashed = true
					return
				}
				panic(p)
			}
		}()
		o.out = Fig13IndexBits(fig13Options(r)).String()
	}()
	o.stats = claims.Stats()
	return o
}

// crashOnce arms a fault point to fire on the first job that reaches it.
func crashOnce(p distrib.Point) func(distrib.Point, string) bool {
	var mu sync.Mutex
	fired := false
	return func(got distrib.Point, job string) bool {
		if got != p {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if fired {
			return false
		}
		fired = true
		return true
	}
}

// manifestNames returns the sorted manifest basenames in dir (temp files and
// leases excluded by the glob).
func manifestNames(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	return names
}

// gatherFig13 runs the strict -gather pass: manifests only, no simulation.
func gatherFig13(t *testing.T, dir string) (string, *Runner) {
	t.Helper()
	store, err := NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(1)
	r.SetResultStore(store)
	r.SetStrictGather(true)
	return Fig13IndexBits(fig13Options(r)).String(), r
}

// testCrashPoint is the shared scenario: worker w1 runs first and crashes at
// the given point on its first claimed job; workers w2 and w3 then split the
// grid concurrently, stealing w1's stale lease.
func testCrashPoint(t *testing.T, point distrib.Point) {
	serial := fig13Serial(t)
	dir := t.TempDir()

	w1 := runFig13Worker(t, dir, "w1", crashOnce(point))
	if !w1.crashed {
		t.Fatalf("w1 did not crash at %s", point)
	}
	if w1.stats.Claims != 1 || w1.stats.Releases != 0 {
		t.Fatalf("w1 stats = %+v, want 1 un-released claim", w1.stats)
	}
	// The crash left w1's lease on disk, un-heartbeaten.
	leases, err := filepath.Glob(filepath.Join(dir, "job-*.json.lease"))
	if err != nil || len(leases) != 1 {
		t.Fatalf("leases after crash = %v (err=%v), want exactly 1", leases, err)
	}

	var wg sync.WaitGroup
	outcomes := make([]workerOutcome, 2)
	for i, id := range []string{"w2", "w3"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = runFig13Worker(t, dir, id, nil)
		}()
	}
	wg.Wait()

	steals := uint64(0)
	for i, o := range outcomes {
		if o.crashed {
			t.Fatalf("survivor w%d crashed", i+2)
		}
		if o.out != serial {
			t.Errorf("w%d output differs from serial run:\n got: %q\nwant: %q", i+2, o.out, serial)
		}
		steals += o.stats.Steals
	}
	if steals == 0 {
		t.Error("no survivor stole the crashed worker's stale lease")
	}

	// No result lost, none duplicated: exactly one manifest per grid job
	// (4 index-bit factories x 2 benches), each a unique filename.
	names := manifestNames(t, dir)
	if len(names) != 8 {
		t.Errorf("manifests = %d (%v), want 8", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate manifest %s", n)
		}
		seen[n] = true
	}

	// Strict gather re-renders identical bytes from manifests alone.
	gathered, gr := gatherFig13(t, dir)
	if gathered != serial {
		t.Errorf("gather output differs from serial run:\n got: %q\nwant: %q", gathered, serial)
	}
	if hits := gr.StoreStats(); hits != 8 {
		t.Errorf("gather manifest hits = %d, want 8 (gather must not simulate)", hits)
	}
}

func TestDistributedCrashAfterClaim(t *testing.T) { testCrashPoint(t, distrib.AfterClaim) }
func TestDistributedCrashMidJob(t *testing.T)     { testCrashPoint(t, distrib.MidJob) }

func TestDistributedCrashBeforeManifestRename(t *testing.T) {
	serial := fig13Serial(t)
	dir := t.TempDir()

	w1 := runFig13Worker(t, dir, "w1", crashOnce(distrib.BeforeRename))
	if !w1.crashed {
		t.Fatal("w1 did not crash before the manifest rename")
	}
	// The signature state of this crash point: a stray manifest temp file,
	// and no published manifest.
	tmps, err := filepath.Glob(filepath.Join(dir, "job-*.json.tmp-*"))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("stray temp files = %v (err=%v), want exactly 1", tmps, err)
	}
	if names := manifestNames(t, dir); len(names) != 0 {
		t.Fatalf("manifests after pre-rename crash = %v, want none", names)
	}

	w2 := runFig13Worker(t, dir, "w2", nil)
	if w2.crashed {
		t.Fatal("survivor crashed")
	}
	if w2.out != serial {
		t.Errorf("w2 output differs from serial run:\n got: %q\nwant: %q", w2.out, serial)
	}
	if names := manifestNames(t, dir); len(names) != 8 {
		t.Errorf("manifests = %d, want 8", len(names))
	}
	gathered, _ := gatherFig13(t, dir)
	if gathered != serial {
		t.Errorf("gather output differs from serial run")
	}
}

// TestDistributedThreeWorkersConcurrent is the no-fault path: three workers
// racing over one directory from the start, claims arbitrating, every
// output byte-identical to serial.
func TestDistributedThreeWorkersConcurrent(t *testing.T) {
	serial := fig13Serial(t)
	dir := t.TempDir()

	var wg sync.WaitGroup
	outcomes := make([]workerOutcome, 3)
	for i, id := range []string{"w1", "w2", "w3"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = runFig13Worker(t, dir, id, nil)
		}()
	}
	wg.Wait()

	claims := uint64(0)
	for i, o := range outcomes {
		if o.crashed {
			t.Fatalf("worker %d crashed", i+1)
		}
		if o.out != serial {
			t.Errorf("worker %d output differs from serial run", i+1)
		}
		claims += o.stats.Claims
	}
	// Every job was claimed by someone; duplicated claims (steal races on
	// live workers) are allowed but each still publishes identical bytes.
	if claims < 8 {
		t.Errorf("total claims = %d, want >= 8", claims)
	}
	if names := manifestNames(t, dir); len(names) != 8 {
		t.Errorf("manifests = %d, want 8", len(names))
	}
}

// TestDistributedBaselineJobs drives worker mode over a job set containing
// baseline jobs, which publish through manifests like any job.
func TestDistributedBaselineJobs(t *testing.T) {
	jobs := storeJobs()

	ref := NewRunner(1).Map(jobs)
	dir := t.TempDir()

	run := func(id string) ([]sim.Result, distrib.Stats) {
		store, err := NewResultStore(dir, true)
		if err != nil {
			t.Fatal(err)
		}
		claims, err := distrib.NewStore(dir, id, distTTL, nil)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(1)
		r.SetResultStore(store)
		r.SetClaims(claims)
		return r.Map(jobs), claims.Stats()
	}

	var wg sync.WaitGroup
	results := make([][]sim.Result, 2)
	allStats := make([]distrib.Stats, 2)
	for i, id := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], allStats[i] = run(id)
		}()
	}
	wg.Wait()

	for w := range results {
		for i := range jobs {
			if results[w][i] != ref[i] {
				t.Errorf("worker %d job %d (%s): result differs from serial", w+1, i, jobs[i].Bench)
			}
		}
	}
	// 2 baselines + 4 grid jobs = 6 manifests.
	if names := manifestNames(t, dir); len(names) != 6 {
		t.Errorf("manifests = %d, want 6", len(names))
	}
}

// TestGatherIncompleteGrid: strict gather over a directory missing one
// manifest raises *IncompleteGridError instead of quietly re-simulating.
func TestGatherIncompleteGrid(t *testing.T) {
	dir := t.TempDir()
	w := runFig13Worker(t, dir, "w1", nil)
	if w.crashed {
		t.Fatal("worker crashed")
	}
	names := manifestNames(t, dir)
	if len(names) != 8 {
		t.Fatalf("manifests = %d, want 8", len(names))
	}
	if err := os.Remove(filepath.Join(dir, names[3])); err != nil {
		t.Fatal(err)
	}

	defer func() {
		p := recover()
		ige, ok := p.(*IncompleteGridError)
		if !ok {
			t.Fatalf("recover = %v, want *IncompleteGridError", p)
		}
		if ige.Bench == "" || ige.Factory == "" {
			t.Errorf("error missing job identity: %+v", ige)
		}
	}()
	gatherFig13(t, dir)
	t.Fatal("gather over incomplete grid did not raise IncompleteGridError")
}
