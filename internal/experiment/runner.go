package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tagprefetch/internal/cpu"
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
	// Baseline marks the job as a no-prefetch baseline run. Factory is
	// ignored; the result is memoised on (Bench, Config) across every Map
	// call on the same Runner, so a sweep simulates each baseline point
	// once per invocation instead of once per figure or row.
	Baseline bool
}

// BaselineJobs returns one memoised no-prefetch job per benchmark.
func BaselineJobs(benches []string, cfg sim.Config) []Job {
	jobs := make([]Job, len(benches))
	for i, b := range benches {
		jobs[i] = Job{Bench: b, Config: cfg, Baseline: true}
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
// no-prefetch baseline results. One Runner should be shared across every
// figure/ablation of a command invocation: the pool bounds concurrency
// globally and the baseline cache then spans figures, so `tcpfigs -exp all`
// simulates each benchmark's baseline once rather than once per figure.
//
// Determinism: results are returned in submission order and each job seeds
// its own workload generator, so a Runner with N workers produces tables
// byte-identical to a Runner with 1 worker (which executes jobs strictly
// serially on the calling goroutine, with no goroutines at all).
type Runner struct {
	workers int

	mu       sync.Mutex
	baseline map[pointKey]*baselineEntry // keyed by the normalized point

	// warm-fork state: shared baseline-warmed checkpoints (see warmfork.go)
	// and the optional on-disk persistence / completed-result manifests.
	checkpointDir string
	store         *ResultStore
	warmMu        sync.Mutex
	warm          map[warmKey]*warmEntry

	// distributed-sweep state: the lease store for claiming jobs against
	// other workers sharing the checkpoint directory, and the strict
	// gather mode that forbids simulation (see distributed.go).
	claims *distrib.Store
	strict bool

	// plan, when non-nil, puts the runner in job-enumeration mode (see
	// SetPlan): jobs are recorded, never simulated.
	plan func(Job)

	baselineRuns   atomic.Uint64
	baselineReuses atomic.Uint64
	warmWarmups    atomic.Uint64
	warmForks      atomic.Uint64
	storeHits      atomic.Uint64
}

// NewRunner creates a pool of the given width; jobs <= 0 uses all
// available cores (runtime.GOMAXPROCS), jobs == 1 is strictly serial.
func NewRunner(jobs int) *Runner {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers:  jobs,
		baseline: make(map[pointKey]*baselineEntry),
		warm:     make(map[warmKey]*warmEntry),
	}
}

// SetCheckpointDir enables on-disk persistence of warm-fork checkpoints in
// dir (created on first write, images written atomically). Call before
// submitting jobs.
func (r *Runner) SetCheckpointDir(dir string) { r.checkpointDir = dir }

// SetResultStore installs a completed-result manifest: every job result
// is written there, and — when the store was opened in resume mode —
// consulted before simulating, so a killed sweep picks up where it stopped.
func (r *Runner) SetResultStore(s *ResultStore) { r.store = s }

// WarmForkStats reports warm-fork effectiveness: warmups actually simulated
// and grid points forked from a warm checkpoint.
func (r *Runner) WarmForkStats() (warmups, forks uint64) {
	return r.warmWarmups.Load(), r.warmForks.Load()
}

// SetPlan puts the runner in job-enumeration mode: Map records every job
// it would execute through collect and returns zero-value results without
// simulating, claiming, or touching the result store. Baseline
// memoisation and warm forking are bypassed, so collect sees one call per
// submitted job — duplicates included; dedupe on JobName. The collector
// must be safe for concurrent use when the runner has more than one
// worker. The sweep daemon (internal/sweepd) uses this to expand a sweep
// request into its exact job set — running the experiment's own
// job-construction code, so the plan can never drift from execution —
// before scheduling only the cache misses.
func (r *Runner) SetPlan(collect func(Job)) { r.plan = collect }

// Jobs returns the pool width.
func (r *Runner) Jobs() int { return r.workers }

// BaselineStats reports baseline-cache effectiveness: simulated is the
// number of baseline points actually run, reused how many submissions were
// answered from the cache (or coalesced onto an in-flight run).
func (r *Runner) BaselineStats() (simulated, reused uint64) {
	return r.baselineRuns.Load(), r.baselineReuses.Load()
}

type baselineEntry struct {
	once sync.Once
	res  sim.Result
}

// cpuKey is the numeric part of cpu.Config as the fingerprints render it:
// its %+v text (field names included, appendMachine writes it) is pinned by
// the identity goldens, so it stays a type of its own, and the predictor
// joins the fingerprints as a non-default clause instead.
type cpuKey struct {
	issueWidth, ruuSize, lsqSize             int
	intALU, intMult, fpALU, fpMult, memPorts int
	redirectPenalty                          int64
}

// cpuKeyFor extracts the comparable fingerprint of a cpu.Config.
func cpuKeyFor(c cpu.Config) cpuKey {
	return cpuKey{
		issueWidth: c.IssueWidth, ruuSize: c.RUUSize, lsqSize: c.LSQSize,
		intALU: c.IntALU, intMult: c.IntMult, fpALU: c.FPALU,
		fpMult: c.FPMult, memPorts: c.MemPorts,
		redirectPenalty: c.RedirectPenalty,
	}
}

// Map executes all jobs across the pool and returns their results in
// submission order. A panic inside any job (e.g. an unknown benchmark) is
// re-raised on the calling goroutine after the pool drains, preserving
// MustRun semantics.
func (r *Runner) Map(jobs []Job) []sim.Result {
	results := make([]sim.Result, len(jobs))
	r.ForEach(len(jobs), func(i int) {
		results[i] = r.run(jobs[i])
	})
	return results
}

func (r *Runner) run(j Job) sim.Result {
	if r.plan != nil {
		r.plan(j)
		return sim.Result{}
	}
	if !j.Baseline {
		return r.resolve(j.Bench, j.Factory, false, j.Config)
	}
	base := sim.NoPrefetch()
	key := pointKey{j.Bench, base.Name, true, normalizedPoint(j.Config)}
	r.mu.Lock()
	e := r.baseline[key]
	if e == nil {
		e = &baselineEntry{}
		r.baseline[key] = e
	} else {
		r.baselineReuses.Add(1)
	}
	r.mu.Unlock()
	// once.Do coalesces duplicate in-flight submissions onto one
	// resolution; latecomers block until the result is ready. In
	// distributed mode the coalescer still collapses this worker's
	// duplicate submissions, and the claim protocol arbitrates across
	// workers.
	e.once.Do(func() { e.res = r.resolve(j.Bench, base, true, j.Config) })
	return e.res
}

// normalizedPoint is c as the point preimage sees it (appendPreimage), so
// two configs share a baseline memo key exactly when they share a
// preimage.
func normalizedPoint(c sim.Config) sim.Config {
	n := c.Normalized()
	n.Mem = n.Mem.WithDefaults()
	return n
}

// resolve answers one grid point: from its manifest, else through the
// claim protocol in distributed mode, else — unless a strict gather
// forbids it — by simulating and publishing the manifest.
func (r *Runner) resolve(bench string, f sim.Factory, baseline bool, cfg sim.Config) sim.Result {
	if res, ok := r.store.Lookup(bench, f.Name, baseline, cfg); ok {
		r.storeHits.Add(1)
		return res
	}
	if r.claims != nil {
		return r.runDistributed(bench, f, baseline, cfg)
	}
	r.requireComplete(bench, f.Name, baseline, cfg)
	if baseline {
		r.baselineRuns.Add(1)
	}
	res := r.simulate(bench, f, cfg)
	r.store.Save(bench, f.Name, baseline, cfg, res)
	return res
}

// ForEach runs fn(i) for every i in [0, n) across the pool. It is the
// generic seam for non-Job work (the profiling and coverage passes). With a
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
