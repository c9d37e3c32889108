// Package runflags owns the flags that describe a run, in two sets. The
// window set (-n, -warmup, -seed, -warmup-fidelity, -cpuprofile,
// -memprofile) is every simulating command's, with package sim's defaults;
// tcpsim and tcptrace bind it alone. The grid set embeds it and adds the
// grid-run flags tcpfigs and tcpsweep share: benchmark subset, workers,
// checkpoint directory, result store, distributed claims, flight recorder
// and -gather; it wires the experiment Runner they describe. Under
// -gather the Runner answers every grid point through an
// experiment.Gather over the directory's manifests, the pass the sweep
// daemon answers requests with, and Run.Gather reports what it missed.
// Tool-specific flags (-bench, -exp, -sweep, -csv, -json, -report) stay in
// each command.
package runflags

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/profiling"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// Window is one command's registered run-window flags.
type Window struct {
	tool string

	n, warmup, seed        *uint64
	fidelity               *string
	cpuProfile, memProfile *string
}

// RegisterWindow adds the window flags to fs. tool names the command in
// messages.
func RegisterWindow(fs *flag.FlagSet, tool string) *Window {
	return &Window{
		tool:     tool,
		n:        fs.Uint64("n", sim.DefaultInstructions, "measured instructions per run"),
		warmup:   fs.Uint64("warmup", sim.DefaultWarmup, "warmup instructions per run (0 = none)"),
		fidelity: fs.String("warmup-fidelity", "full", "warmup engine: full (cycle-accurate) or fast (functional fast-forward, docs/FASTFORWARD.md)"),
		seed:     fs.Uint64("seed", sim.DefaultSeed, "workload seed"),

		cpuProfile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write an allocation profile to this file"),
	}
}

// Bind validates the window, starts -cpuprofile/-memprofile and returns
// the window as a literal sim.Config: -warmup 0 means no warmup. The
// returned stop must run before the process exits. Pass a returned error
// to Exit.
func (w *Window) Bind() (sim.Config, func(), error) {
	fid, err := sim.ParseFidelity(*w.fidelity)
	if err != nil {
		return sim.Config{}, nil, usage("-warmup-fidelity: %w", err)
	}
	// sim.Config reads a zero measured window or seed as its default, so
	// -n 0 or -seed 0 would simulate another run than the one reported.
	if *w.n == 0 {
		return sim.Config{}, nil, &usageError{&sim.ConfigError{Field: "Instructions", Reason: "measured window is zero"}}
	}
	if *w.seed == 0 {
		return sim.Config{}, nil, &usageError{&sim.ConfigError{Field: "Seed", Reason: "seed is zero"}}
	}
	cfg := sim.Config{Instructions: *w.n, Warmup: *w.warmup, Seed: *w.seed, WarmupFidelity: fid}
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, nil, &usageError{err}
	}
	stop, err := profiling.Start(*w.cpuProfile, *w.memProfile)
	return cfg, stop, err
}

// Exit prints err as "<tool>: err" on stderr and returns the command's
// exit status.
func (w *Window) Exit(err error) int {
	fmt.Fprintf(os.Stderr, "%s: %v\n", w.tool, err)
	return exitCode(err)
}

// Flags are one command's registered grid-run flags: the window set plus
// the grid's own.
type Flags struct {
	*Window

	benches          *string
	jobs             *int
	warmFork, resume *bool
	ckptDir          *string
	workers          *int
	workerID         *string
	leaseTTL         *time.Duration
	gather           *bool
}

// Register adds the window and grid-run flags to fs. tool names the
// command in messages and in the checkpoint directory's grid.json.
func Register(fs *flag.FlagSet, tool string) *Flags {
	f := &Flags{
		Window:  RegisterWindow(fs, tool),
		benches: fs.String("benches", "", "comma-separated benchmark subset (default all 26)"),
		jobs:    fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)"),

		warmFork: fs.Bool("warmfork", false, "run every warmup under the no-prefetch baseline and fork grid points from one warm checkpoint per benchmark"),
		ckptDir:  fs.String("checkpoint-dir", "", "persist warm checkpoints and per-job result manifests in this directory"),
		resume:   fs.Bool("resume", false, "answer already-completed jobs from -checkpoint-dir manifests instead of re-simulating"),

		workers:  fs.Int("workers", 0, "join a distributed run splitting this grid over -checkpoint-dir (the value is advisory: any number of workers may cooperate)"),
		workerID: fs.String("worker-id", "", "unique id for this worker in a distributed run (default hostname-pid; requires -workers)"),
		leaseTTL: fs.Duration("lease-ttl", 30*time.Second, "heartbeat staleness horizon before a crashed worker's job leases may be stolen"),
		gather:   fs.Bool("gather", false, "assemble a completed distributed run from -checkpoint-dir manifests without simulating grid points; errors if any job is missing (tcpfigs' miss-stream passes for fig2-fig7, fig15 and coverage are not grid jobs and still simulate)"),
	}
	fs.Lookup("warmup").Usage = "warmup instructions per run (at least 1)"
	return f
}

// usageError is a flag value the command rejects with exit status 2.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func usage(format string, a ...any) error {
	return &usageError{fmt.Errorf(format, a...)}
}

// Run is a validated grid run: its Options carry the wired Runner.
type Run struct {
	Options experiment.Options
	// Gather answers the Runner under -gather, else it is nil. A tool
	// checks Gather.Err after each figure and prints the figure only
	// when it is nil.
	Gather *experiment.Gather

	tool string
}

// Bind binds the window set as Window.Bind does, then validates the grid
// flags and returns the run they describe. exp is the experiment id
// recorded in grid.json; the caller checks it against its own table
// first. Every flag is checked before the checkpoint directory is
// touched. Pass a returned error to Exit.
func (f *Flags) Bind(exp string) (*Run, func(), error) {
	cfg, stop, err := f.Window.Bind()
	if err != nil {
		return nil, nil, err
	}
	r, err := f.run(exp, cfg)
	if err != nil {
		stop()
		return nil, nil, err
	}
	return r, stop, nil
}

func (f *Flags) run(exp string, cfg sim.Config) (*Run, error) {
	// Options reads a zero warmup as its default, so -warmup 0 would
	// simulate that default while grid.json recorded 0.
	if cfg.Warmup == 0 {
		return nil, &usageError{&sim.ConfigError{Field: "Warmup", Reason: "warmup window is zero"}}
	}
	o := experiment.Options{Instructions: cfg.Instructions, Warmup: cfg.Warmup, Seed: cfg.Seed,
		WarmupFidelity: cfg.WarmupFidelity, BaselineWarmup: *f.warmFork}
	if *f.benches != "" {
		o.Benches = strings.Split(*f.benches, ",")
	}
	if err := o.Validate(); err != nil {
		return nil, &usageError{err}
	}
	if err := distrib.ValidateWorkerFlags(*f.workers, *f.workerID, *f.leaseTTL); err != nil {
		return nil, &usageError{err}
	}
	dir := *f.ckptDir
	workerMode := *f.workers > 0 || *f.workerID != ""
	switch {
	case *f.resume && dir == "":
		return nil, usage("-resume requires -checkpoint-dir")
	case workerMode && dir == "":
		return nil, usage("-workers/-worker-id require -checkpoint-dir (the shared directory is the coordination medium)")
	case *f.gather && dir == "":
		return nil, usage("-gather requires -checkpoint-dir")
	case *f.gather && workerMode:
		return nil, usage("-gather and -workers are mutually exclusive (gather assembles after the workers finish)")
	}

	o.Runner = experiment.NewRunner(*f.jobs)
	r := &Run{Options: o, tool: f.tool}
	if dir == "" {
		return r, nil
	}
	benches := o.Benches
	if len(benches) == 0 {
		benches = workload.Names()
	}
	// The default engine is recorded as the field's absence, so default
	// runs write grid.json byte-identical to pre-fidelity builds.
	fidDesc := ""
	if cfg.WarmupFidelity != sim.FidelityFull {
		fidDesc = string(cfg.WarmupFidelity)
	}
	desc := experiment.GridDesc{Tool: f.tool, Experiment: exp,
		Instructions: cfg.Instructions, Warmup: cfg.Warmup, WarmupFidelity: fidDesc,
		Seed: cfg.Seed, Benches: benches, WarmFork: *f.warmFork}
	// Consumers of existing manifests (resume, workers, gather) must match
	// the recorded grid; a fresh recording run replaces it.
	if err := experiment.EnsureGrid(dir, desc, !*f.resume && !workerMode && !*f.gather); err != nil {
		return nil, err
	}
	o.Runner.SetCheckpointDir(dir)
	// Workers and gather always consult manifests: they are the
	// publication medium of a distributed run.
	store, err := experiment.NewResultStore(dir, *f.resume || workerMode || *f.gather)
	if err != nil {
		return nil, err
	}
	o.Runner.SetResultStore(store)
	if workerMode {
		id := *f.workerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		claims, err := distrib.NewStore(dir, id, *f.leaseTTL, nil)
		if err != nil {
			return nil, err
		}
		// Claim-protocol events go to per-job flight logs, replayed by
		// tcpstatus -timeline.
		rec := distrib.NewRecorder(dir, id, nil, 0)
		claims.SetRecorder(rec)
		store.SetRecorder(rec)
		o.Runner.SetClaims(claims)
	}
	if *f.gather {
		r.Gather = experiment.NewGather(store.LookupJob, math.MaxInt)
		o.Runner.SetAnswer(r.Gather.Answer)
	}
	return r, nil
}

// PrintStats writes the runner's end-of-run counters to stderr. In worker
// mode it also returns this worker's claim statistics for a JSON report.
func (r *Run) PrintStats() []telemetry.WorkerStats {
	run := r.Options.Runner
	if simulated, reused := run.MemoStats(); reused > 0 {
		fmt.Fprintf(os.Stderr, "%s: result memo: %d simulated, %d reused\n",
			r.tool, simulated, reused)
	}
	if warmups, forks := run.WarmForkStats(); forks > 0 {
		fmt.Fprintf(os.Stderr, "%s: warm fork: %d warmups simulated, %d grid points forked\n",
			r.tool, warmups, forks)
	}
	hits := run.StoreStats()
	if g := r.Gather; g != nil {
		hits = uint64(len(g.Jobs) - len(g.Missing))
	}
	if hits > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d jobs answered from result manifests\n", r.tool, hits)
	}
	ws, ok := run.WorkerStats()
	if !ok {
		return nil
	}
	fmt.Fprintf(os.Stderr, "%s: worker %s: %d claimed, %d conflicts, %d stolen (%d races), %d heartbeats, %d lost, %d waits\n",
		r.tool, ws.ID, ws.Claims, ws.ClaimConflicts, ws.Steals, ws.StealRaces,
		ws.Heartbeats, ws.LeasesLost, ws.WaitPolls)
	return []telemetry.WorkerStats{ws}
}

// Exit prints err as "<tool>: err" on stderr and returns the command's exit
// status. After an incomplete gather it lists every hole of the grid and
// its last-known holder, so the operator knows which worker to restart.
func (f *Flags) Exit(err error) int {
	code := f.Window.Exit(err)
	var ige *experiment.IncompleteGridError
	if errors.As(err, &ige) {
		if herr := fleetobs.WriteHoles(os.Stderr, *f.ckptDir, ige.Names); herr != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.tool, herr)
		}
	}
	return code
}

// exitCode is 2 for a usage error or a grid mismatch, 1 otherwise.
func exitCode(err error) int {
	var ue *usageError
	var gm *experiment.GridMismatchError
	if errors.As(err, &ue) || errors.As(err, &gm) {
		return 2
	}
	return 1
}
