// Package sweepd is the sweep-as-a-service daemon behind cmd/tcpsweepd: a
// long-running HTTP front door over the distributed sweep machinery
// (internal/experiment/distrib) and fleet observability (internal/fleetobs).
//
// A client POSTs a grid request — sweep name, benchmark subset, measure and
// warmup windows, fidelity — and the daemon answers it in one pass: the
// experiment's own job-construction code runs once under a runner hook that
// expands the request to its exact job set, answers every point it can from
// a content-addressed result cache and, when every point hits, renders the
// result body. Only the misses are scheduled onto the in-process worker
// fleet. The cache is the result-manifest directory itself: manifest names
// are content hashes of the full normalized configuration
// (experiment.JobName), shared by every sweep and every tenant, and scoped
// under ckpt-v<N> so a checkpoint-format bump can never resurrect stale
// bytes. Repeated requests — same tenant or not — therefore cost one
// simulation, not N.
//
// Scheduling is fair per tenant: a round-robin over per-tenant FIFOs (see
// roundRobin) guarantees every tenant with queued work is served every
// round. A bounded global queue pushes back with 429 + Retry-After, and
// per-request job budgets reject oversized grids up front with a typed 400.
//
// See docs/SWEEPD.md for the API reference and failure matrix.
package sweepd

import (
	"bytes"
	"container/list"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
)

// Config parameterizes a daemon. The zero value of every field selects a
// sensible default; only Root is required.
type Config struct {
	// Root is the daemon's data directory. The result cache lives in
	// Root/ckpt-v<checkpoint.Version>: the format version joins the path so
	// a version bump starts a fresh cache instead of mixing incompatible
	// checkpoint images.
	Root string
	// Workers is the in-process simulation worker count (default 2). Each
	// worker is a full fleet citizen — it claims jobs through the lease
	// protocol — so external tcpsweep workers pointed at the same cache
	// directory cooperate with the daemon's own.
	Workers int
	// LeaseTTL is the job-lease staleness horizon (default 30s).
	LeaseTTL time.Duration
	// MaxQueuedJobs bounds the global scheduler queue (default 1024). A
	// request whose cache misses would overflow it is rejected with 429.
	MaxQueuedJobs int
	// MaxJobsPerSweep caps one request's job count (default 4096). A
	// request may lower — never raise — its own budget via "max_jobs".
	MaxJobsPerSweep int
	// Clock drives timestamps and leases (default distrib.System; tests
	// inject distrib.ManualClock).
	Clock distrib.Clock
}

// Sweep lifecycle states.
const (
	StateQueued    = "queued"    // accepted; no job popped yet
	StateRunning   = "running"   // at least one job handed to a worker
	StateDone      = "done"      // every job has a manifest; result servable
	StateCancelled = "cancelled" // DELETEd; queued jobs released
	StateFailed    = "failed"    // a job errored; Failure says which
)

// maxFinishedSweeps bounds the finished (done, failed or cancelled) sweeps
// the daemon remembers. Past it the oldest is forgotten and its id is a
// 404; queued and running sweeps are never forgotten.
const maxFinishedSweeps = 1024

// maxTenants bounds the tenants whose accounting the daemon remembers,
// each one sweepd.tenant.* set on /metrics. Past it the least recently
// seen idle tenant is forgotten, in O(1) through a list; a tenant with a
// queued or running sweep never is, so the map exceeds the bound only
// while more tenants than that have work in flight.
const maxTenants = maxFinishedSweeps

// sweepRec is the daemon's record of one accepted sweep.
type sweepRec struct {
	id        string
	tenant    string
	req       Request // normalized
	state     string
	createdNS int64
	jobs      []experiment.Job // deduped plan, submission order
	jobNames  []string         // parallel content addresses
	pending   map[string]bool  // addresses not yet manifested for this sweep
	cached    int              // jobs answered from the cache at submit
	executed  int              // jobs this daemon's workers completed
	failure   string
	result    []byte // rendered body: set at admission when every point hit, else by the first GET /result
}

// Server is the daemon: an HTTP handler plus a worker pool over one
// content-addressed cache directory.
type Server struct {
	cfg      Config
	cacheDir string
	store    *experiment.ResultStore
	obs      *fleetobs.Server

	reg             *telemetry.Registry
	mRequests       *telemetry.Counter
	mRejected       *telemetry.Counter
	mInvalid        *telemetry.Counter
	mSweepsDone     *telemetry.Counter
	mSweepsCanceled *telemetry.Counter
	mSweepsFailed   *telemetry.Counter
	mJobsExecuted   *telemetry.Counter
	mJobsCached     *telemetry.Counter
	gSweepsActive   *telemetry.Gauge
	gJobsQueued     *telemetry.Gauge
	gTenantsActive  *telemetry.Gauge

	mu      sync.Mutex
	cond    *sync.Cond
	sweeps  map[string]*sweepRec
	retired []*sweepRec // finished sweeps, oldest first; see maxFinishedSweeps
	sched   *roundRobin
	tenants map[string]*tenantStats
	idle    *list.List           // names of tenants with no queued or running sweep, least recently seen first
	workers []*experiment.Runner // serial, each with its own lease store
	started bool
	closed  bool
	wg      sync.WaitGroup

	// exec, when non-nil, replaces real job execution (tests only).
	exec func(experiment.Job) error

	srv *http.Server
}

// tenantStats is one tenant's request/job accounting, exposed on /metrics
// as a tenant-labelled sweepd.tenant.* set.
type tenantStats struct {
	requests     uint64
	jobsExecuted uint64
	jobsCached   uint64
	active       int           // queued or running sweeps
	idle         *list.Element // place in Server.idle while active is 0
}

// New creates a daemon over cfg.Root, creating the version-scoped cache
// directory. Call Start (or Serve, which implies it) to launch the
// workers.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("sweepd: empty root directory")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = 1024
	}
	if cfg.MaxJobsPerSweep <= 0 {
		cfg.MaxJobsPerSweep = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = distrib.System
	}
	cacheDir := filepath.Join(cfg.Root, fmt.Sprintf("ckpt-v%d", checkpoint.Version))
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	store, err := experiment.NewResultStore(cacheDir, true)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:      cfg,
		cacheDir: cacheDir,
		store:    store,
		obs:      fleetobs.NewServer(cacheDir, cfg.Clock),
		reg:      reg,
		sweeps:   make(map[string]*sweepRec),
		sched:    newRoundRobin(),
		tenants:  make(map[string]*tenantStats),
		idle:     list.New(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.mRequests = reg.Counter("sweepd.requests.total", "sweep requests received")
	s.mRejected = reg.Counter("sweepd.requests.rejected", "sweep requests rejected with 429 backpressure")
	s.mInvalid = reg.Counter("sweepd.requests.invalid", "sweep requests rejected with 400")
	s.mSweepsDone = reg.Counter("sweepd.sweeps.done", "sweeps completed")
	s.mSweepsCanceled = reg.Counter("sweepd.sweeps.cancelled", "sweeps cancelled via DELETE")
	s.mSweepsFailed = reg.Counter("sweepd.sweeps.failed", "sweeps failed on a job error")
	s.mJobsExecuted = reg.Counter("sweepd.jobs.executed", "jobs completed by this daemon's workers")
	s.mJobsCached = reg.Counter("sweepd.jobs.cached", "jobs answered from the result cache at submit")
	s.gSweepsActive = reg.Gauge("sweepd.sweeps.active", "sweeps currently queued or running")
	s.gJobsQueued = reg.Gauge("sweepd.jobs.queued", "jobs waiting in the scheduler queue")
	s.gTenantsActive = reg.Gauge("sweepd.tenants.active", "tenants whose accounting the daemon holds")
	s.obs.AddMetrics(s.promSets)
	s.srv = &http.Server{Handler: s.Handler()}
	return s, nil
}

// CacheDir returns the version-scoped result-cache directory.
func (s *Server) CacheDir() string { return s.cacheDir }

// Start launches the worker pool. Idempotent once successful; returns an
// error if a worker's lease store cannot be created.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return nil
	}
	for i := 0; i < s.cfg.Workers; i++ {
		id := fmt.Sprintf("sweepd-w%d-%d", i, os.Getpid())
		claims, err := distrib.NewStore(s.cacheDir, id, s.cfg.LeaseTTL, s.cfg.Clock)
		if err != nil {
			return err
		}
		runner := experiment.NewRunner(1)
		runner.SetCheckpointDir(s.cacheDir)
		runner.SetResultStore(s.store)
		runner.SetClaims(claims)
		s.workers = append(s.workers, runner)
		s.wg.Add(1)
		go s.workerLoop(runner)
	}
	s.started = true
	return nil
}

// Serve starts the workers, then serves HTTP on l until Close (returning
// nil) or a listener failure.
func (s *Server) Serve(l net.Listener) error {
	if err := s.Start(); err != nil {
		return err
	}
	err := s.srv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Close stops the HTTP server and the workers, waiting for in-flight jobs
// to finish. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.srv.Close() //nolint:errcheck // shutdown errors are not actionable
	s.wg.Wait()
}

// workerLoop pops refs under the fair-scheduling policy and executes them
// until Close. Refs whose sweep died (failed) after queuing are skipped.
func (s *Server) workerLoop(w *experiment.Runner) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.sched.queued == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		ref, _ := s.sched.pop()
		if ref.sw.state != StateQueued && ref.sw.state != StateRunning {
			s.mu.Unlock()
			continue
		}
		ref.sw.state = StateRunning
		s.mu.Unlock()
		err := s.execJob(w, ref.job)
		s.finish(ref, err)
	}
}

// execJob runs one grid point through the worker's runner (or the test
// stub). The runner consults the manifest store first, so a point another
// sweep already simulated costs a disk read; otherwise the claim protocol
// arbitrates against the daemon's other workers and any external fleet.
func (s *Server) execJob(w *experiment.Runner, job experiment.Job) (err error) {
	if s.exec != nil {
		return s.exec(job)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v", p)
		}
	}()
	w.Map([]experiment.Job{job})
	return nil
}

// finish records one popped ref's outcome on its sweep.
func (s *Server) finish(ref jobRef, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := ref.sw
	if sw.state != StateRunning && sw.state != StateQueued {
		return // cancelled or failed while this job was in flight
	}
	if err != nil {
		sw.state = StateFailed
		sw.failure = fmt.Sprintf("job %s: %v", ref.name, err)
		s.mSweepsFailed.Inc()
		s.sched.removeSweep(sw)
		s.retireLocked(sw)
		return
	}
	if sw.pending[ref.name] {
		delete(sw.pending, ref.name)
		sw.executed++
		s.mJobsExecuted.Inc()
		s.tenantRec(sw.tenant).jobsExecuted++
	}
	if len(sw.pending) == 0 {
		sw.state = StateDone
		s.mSweepsDone.Inc()
		s.retireLocked(sw)
	}
}

// retireLocked records that sw has just finished and, past
// maxFinishedSweeps, forgets the oldest finished sweep unless a newer one
// has taken over its id. Callers hold s.mu.
func (s *Server) retireLocked(sw *sweepRec) {
	s.tenantActive(sw.tenant, -1)
	s.retired = append(s.retired, sw)
	if len(s.retired) <= maxFinishedSweeps {
		return
	}
	old := s.retired[0]
	s.retired[0] = nil
	s.retired = s.retired[1:]
	if s.sweeps[old.id] == old {
		delete(s.sweeps, old.id)
	}
}

// tenantRec returns (creating if needed) a tenant's accounting record and
// marks an idle tenant most recently seen. Creating one past maxTenants
// forgets the least recently seen idle tenant. Callers hold s.mu.
func (s *Server) tenantRec(name string) *tenantStats {
	t := s.tenants[name]
	switch {
	case t == nil:
		if e := s.idle.Front(); e != nil && len(s.tenants) >= maxTenants {
			delete(s.tenants, s.idle.Remove(e).(string))
		}
		t = &tenantStats{}
		t.idle = s.idle.PushBack(name)
		s.tenants[name] = t
	case t.idle != nil:
		s.idle.MoveToBack(t.idle)
	}
	return t
}

// tenantActive counts one more (d = 1) or one fewer (d = -1) queued or
// running sweep for a tenant. A tenant with none is idle: it joins the
// idle list, from which tenantRec may forget it. Callers hold s.mu.
func (s *Server) tenantActive(name string, d int) {
	t := s.tenantRec(name)
	t.active += d
	switch {
	case t.active > 0 && t.idle != nil:
		s.idle.Remove(t.idle)
		t.idle = nil
	case t.active == 0 && t.idle == nil:
		t.idle = s.idle.PushBack(name)
	}
}

// options assembles the experiment Options for a normalized request over
// the given runner.
func options(req Request, r *experiment.Runner) experiment.Options {
	return experiment.Options{
		Instructions:   req.Instructions,
		Warmup:         req.Warmup,
		Seed:           req.Seed,
		WarmupFidelity: sim.Fidelity(req.WarmupFidelity),
		BaselineWarmup: req.WarmFork,
		Benches:        req.Benches,
		Runner:         r,
	}
}

// answer answers a normalized request in one run of its sweep
// definition under an experiment.Gather over lookup, which plans the
// grid, looks each point up once and records the misses. When every point
// hit, body is the exact bytes `tcpsweep -sweep <name> -gather` prints
// over the same manifests: the same pass and the same SweepResult.Print.
// A grid of more than budget jobs is a RequestError on "max_jobs",
// rejected without a manifest read (see experiment.NewGather).
func answer(lookup func(experiment.Job) (sim.Result, bool), req Request, budget int) (g *experiment.Gather, body []byte, err error) {
	def, err := experiment.LookupSweep(req.Sweep)
	if err != nil {
		return nil, nil, &RequestError{Field: "sweep", Reason: err.Error()}
	}
	g = experiment.NewGather(lookup, budget)
	r := experiment.NewRunner(1)
	r.SetAnswer(g.Answer)
	out := def.Run(options(req, r))
	if len(g.Jobs) > budget {
		return nil, nil, &RequestError{Field: "max_jobs",
			Reason: fmt.Sprintf("grid has %d jobs, budget is %d", len(g.Jobs), budget)}
	}
	if len(g.Missing) > 0 {
		return g, nil, nil
	}
	var buf bytes.Buffer
	out.Print(&buf)
	return g, buf.Bytes(), nil
}

// budget is a normalized request's job budget: MaxJobsPerSweep, lowered
// by the request's own max_jobs.
func (c Config) budget(req Request) int {
	if req.MaxJobs > 0 && req.MaxJobs < c.MaxJobsPerSweep {
		return req.MaxJobs
	}
	return c.MaxJobsPerSweep
}

// answerFor answers a normalized request from the server's manifest store.
func (s *Server) answerFor(req Request) (*experiment.Gather, []byte, error) {
	return answer(s.store.LookupJob, req, s.cfg.budget(req))
}

// sweepID derives the daemon-level identity of a normalized request:
// tenant, sweep name, every window/seed/fidelity knob, the exact benchmark
// order (it shapes the rendered body) and the checkpoint format version.
// Two tenants submitting the same grid get distinct sweeps — cancellation
// and accounting stay per-tenant — that share every cached point.
func sweepID(tenant string, req Request) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%s|%d|%v|%s|v%d", //nolint:errcheck // fnv never errors
		tenant, req.Sweep, req.Instructions, req.Warmup, req.WarmupFidelity,
		req.Seed, req.WarmFork, strings.Join(req.Benches, ","), checkpoint.Version)
	return fmt.Sprintf("sw-%016x", h.Sum64())
}

// promSets is the /metrics collector: the daemon-wide sweepd.* registry
// plus one tenant-labelled sweepd.tenant.* set per tenant, rendered in
// sorted tenant order so scrapes are deterministic.
func (s *Server) promSets() []telemetry.PromSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := 0
	for _, sw := range s.sweeps {
		if sw.state == StateQueued || sw.state == StateRunning {
			active++
		}
	}
	s.gSweepsActive.Set(float64(active))
	s.gJobsQueued.Set(float64(s.sched.queued))
	s.gTenantsActive.Set(float64(len(s.tenants)))
	sets := []telemetry.PromSet{telemetry.PromFromRegistry(s.reg)}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := s.tenants[name]
		queued := 0
		if t := s.sched.byName[name]; t != nil {
			queued = len(t.refs)
		}
		r := telemetry.NewRegistry()
		r.Counter("sweepd.tenant.requests", "sweep requests from this tenant").Store(ts.requests)
		r.Counter("sweepd.tenant.jobs_executed", "jobs executed for this tenant").Store(ts.jobsExecuted)
		r.Counter("sweepd.tenant.jobs_cached", "jobs answered from cache for this tenant").Store(ts.jobsCached)
		r.Gauge("sweepd.tenant.jobs_queued", "jobs this tenant has waiting in the queue").Set(float64(queued))
		sets = append(sets, telemetry.PromFromRegistry(r, telemetry.PromLabel{Name: "tenant", Value: name}))
	}
	return sets
}

// workerStats snapshots every in-process worker's claim-protocol counters
// for status responses. Callers need not hold s.mu: worker registration
// only happens before Start returns.
func (s *Server) workerStats() []telemetry.WorkerStats {
	out := make([]telemetry.WorkerStats, 0, len(s.workers))
	for _, w := range s.workers {
		ws, _ := w.WorkerStats() // every worker runner has a lease store
		out = append(out, ws)
	}
	return out
}
