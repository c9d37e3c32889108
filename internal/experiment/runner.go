package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/sim"
)

// Job is one simulation point of an experiment grid: a benchmark, a
// prefetcher configuration and a machine configuration. Jobs are pure —
// every run constructs its own workload generator from Config.Seed and its
// own machine state — so they may execute on any worker in any order and
// still produce the exact result a serial run would.
type Job struct {
	Bench   string
	Factory sim.Factory
	// Config carries the per-job seed: the workload generator is derived
	// from Config.Seed inside the worker, never from shared RNG state.
	Config sim.Config
	// Baseline marks the job as the no-prefetch baseline a figure divides
	// by; its Factory is sim.NoPrefetch(). The flag joins the content
	// address, so a baseline and a grid point that both run "none" keep
	// separate manifests.
	Baseline bool
}

// BaselineJobs returns one no-prefetch baseline job per benchmark.
func BaselineJobs(benches []string, cfg sim.Config) []Job {
	jobs := make([]Job, len(benches))
	for i, b := range benches {
		jobs[i] = Job{Bench: b, Factory: sim.NoPrefetch(), Config: cfg, Baseline: true}
	}
	return jobs
}

// GridJobs returns the bench-major (bench, factory) product: job i*len(fs)+j
// runs benches[i] under fs[j].
func GridJobs(benches []string, fs []sim.Factory, cfg sim.Config) []Job {
	jobs := make([]Job, 0, len(benches)*len(fs))
	for _, b := range benches {
		for _, f := range fs {
			jobs = append(jobs, Job{Bench: b, Factory: f, Config: cfg})
		}
	}
	return jobs
}

// Runner executes simulation jobs across a pool of workers and memoises
// every result by grid point. One Runner should be shared across every
// figure/ablation of a command invocation: the pool bounds concurrency
// globally and the memo then spans figures, so `tcpfigs -exp all`
// simulates each point once — a benchmark's baseline, or a TCP-8K that
// Figures 11, 12, 13 and 14 all show — rather than once per figure.
//
// Determinism: results are returned in submission order and each job seeds
// its own workload generator, so a Runner with N workers produces tables
// byte-identical to a Runner with 1 worker (which executes jobs strictly
// serially on the calling goroutine, with no goroutines at all).
type Runner struct {
	workers int

	mu   sync.Mutex
	memo map[pointKey]*memoEntry // keyed by the normalized point

	// warm-fork state: shared baseline-warmed checkpoints (see warmfork.go)
	// and the optional on-disk persistence / completed-result manifests.
	checkpointDir string
	store         *ResultStore
	warmMu        sync.Mutex
	warm          map[warmKey]*warmEntry

	// distributed-sweep state: the lease store for claiming jobs against
	// other workers sharing the checkpoint directory (see distributed.go).
	claims *distrib.Store

	// answer, when non-nil, answers every Map batch in place of the
	// runner (see SetAnswer): nothing is simulated, claimed or memoised.
	answer func([]Job) []sim.Result

	simulated   atomic.Uint64
	memoReuses  atomic.Uint64
	warmWarmups atomic.Uint64
	warmForks   atomic.Uint64
	storeHits   atomic.Uint64
}

// NewRunner creates a pool of the given width; jobs <= 0 uses all
// available cores (runtime.GOMAXPROCS), jobs == 1 is strictly serial.
func NewRunner(jobs int) *Runner {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: jobs,
		memo:    make(map[pointKey]*memoEntry),
		warm:    make(map[warmKey]*warmEntry),
	}
}

// SetCheckpointDir enables on-disk persistence of warm-fork checkpoints in
// dir (created on first write, images written atomically). Call before
// submitting jobs.
func (r *Runner) SetCheckpointDir(dir string) { r.checkpointDir = dir }

// SetResultStore installs a completed-result manifest: every job result
// is written there, and — when the store was opened in resume mode —
// consulted before simulating, so a killed sweep picks up where it stopped.
// A store in resume mode is then the runner's only cache: the memo is
// skipped, so a deleted manifest is simulated and published again.
func (r *Runner) SetResultStore(s *ResultStore) { r.store = s }

// WarmForkStats reports warm-fork effectiveness: warmups actually simulated
// and grid points forked from a warm checkpoint.
func (r *Runner) WarmForkStats() (warmups, forks uint64) {
	return r.warmWarmups.Load(), r.warmForks.Load()
}

// SetAnswer hands every batch Map would execute to fn, which returns the
// batch's results in submission order: the runner then simulates nothing,
// claims nothing, and bypasses the memo, warm forking and the result
// store, so fn sees every submitted job, duplicates included (dedupe on
// JobName). fn is called on Map's goroutine, one batch at a time, whatever
// the pool width. A Gather answers a grid from manifests this way: the
// experiment's own job-construction code enumerates the grid, so the plan
// can never drift from execution, and each point is answered in the same
// pass.
func (r *Runner) SetAnswer(fn func([]Job) []sim.Result) { r.answer = fn }

// SetPlan puts the runner in job-enumeration mode: Map records every job
// through collect, in submission order, and returns zero-value results
// (see SetAnswer).
func (r *Runner) SetPlan(collect func(Job)) {
	r.SetAnswer(func(jobs []Job) []sim.Result {
		for _, j := range jobs {
			collect(j)
		}
		return make([]sim.Result, len(jobs))
	})
}

// Jobs returns the pool width.
func (r *Runner) Jobs() int { return r.workers }

// MemoStats reports how the runner answered its jobs: simulated is the
// number of grid points it actually ran, reused how many submissions the
// memo answered (or coalesced onto an in-flight run).
func (r *Runner) MemoStats() (simulated, reused uint64) {
	return r.simulated.Load(), r.memoReuses.Load()
}

type memoEntry struct {
	once sync.Once
	res  sim.Result
}

// Map executes all jobs across the pool and returns their results in
// submission order. A panic inside any job (e.g. an unknown benchmark) is
// re-raised on the calling goroutine after the pool drains, preserving
// MustRun semantics.
func (r *Runner) Map(jobs []Job) []sim.Result {
	if r.answer != nil {
		return r.answer(jobs)
	}
	results := make([]sim.Result, len(jobs))
	r.ForEach(len(jobs), func(i int) {
		results[i] = r.run(jobs[i])
	})
	return results
}

func (r *Runner) run(j Job) sim.Result {
	if r.store.consulted() {
		return r.resolve(j)
	}
	// A factory label names one machine (TestJobNamesNameOneMachine), so
	// the key names one simulation.
	key := pointKey{j.Bench, j.Factory.Name, j.Baseline, normalizedPoint(j.Config)}
	r.mu.Lock()
	e := r.memo[key]
	if e == nil {
		e = &memoEntry{}
		r.memo[key] = e
	} else {
		r.memoReuses.Add(1)
	}
	r.mu.Unlock()
	// once.Do coalesces duplicate in-flight submissions onto one
	// resolution; latecomers block until the result is ready.
	e.once.Do(func() { e.res = r.resolve(j) })
	return e.res
}

// normalizedPoint is c as the point preimage sees it (appendPreimage), so
// two configs share a memo key exactly when they share a preimage.
func normalizedPoint(c sim.Config) sim.Config {
	n := c.Normalized()
	n.Mem = n.Mem.WithDefaults()
	return n
}

// resolve answers one grid point: through the claim protocol in
// distributed mode, whose every attempt reads the manifest first, else
// from its manifest or by simulating and publishing the manifest.
func (r *Runner) resolve(j Job) sim.Result {
	if r.claims != nil {
		return r.runDistributed(j)
	}
	if res, ok := r.store.LookupJob(j); ok {
		r.storeHits.Add(1)
		return res
	}
	res := r.simulate(j.Bench, j.Factory, j.Config)
	r.store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config, res)
	return res
}

// ForEach runs fn(i) for every i in [0, n) across the pool. It is the
// generic seam for non-Job work (tcpsim's per-benchmark runs). With a
// single worker it degenerates to a plain loop on the calling goroutine.
func (r *Runner) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		panicIdx = -1
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicMu.Lock()
							if panicIdx < 0 || i < panicIdx {
								panicVal, panicIdx = p, i
							}
							panicMu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	// Re-raise the earliest panic by submission order so parallel and
	// serial runs fail identically.
	if panicIdx >= 0 {
		panic(panicVal)
	}
}
