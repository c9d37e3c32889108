// Package runflags owns the grid-run flags that tcpfigs and tcpsweep share.
// It registers them with today's names and defaults, validates them, and
// wires the experiment Runner they describe: checkpoint directory, result
// store, distributed claims, flight recorder and strict gather.
// Tool-specific flags (-exp, -sweep, -csv, -json, -report) stay in each
// command.
package runflags

import (
	"errors"
	"flag"
	"fmt"
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

// Flags are one command's registered grid-run flags.
type Flags struct {
	tool string

	n, warmup, seed        *uint64
	fidelity, benches      *string
	jobs                   *int
	cpuProfile, memProfile *string
	warmFork, resume       *bool
	ckptDir                *string
	workers                *int
	workerID               *string
	leaseTTL               *time.Duration
	gather                 *bool
}

// Register adds the grid-run flags to fs. tool names the command in
// messages and in the checkpoint directory's grid.json.
func Register(fs *flag.FlagSet, tool string) *Flags {
	return &Flags{
		tool:     tool,
		n:        fs.Uint64("n", 1_000_000, "measured instructions per run"),
		warmup:   fs.Uint64("warmup", 2_000_000, "warmup instructions per run (at least 1)"),
		fidelity: fs.String("warmup-fidelity", "full", "warmup engine: full (cycle-accurate) or fast (functional fast-forward, docs/FASTFORWARD.md)"),
		seed:     fs.Uint64("seed", 1, "workload seed"),
		benches:  fs.String("benches", "", "comma-separated benchmark subset (default all 26)"),
		jobs:     fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)"),

		cpuProfile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write an allocation profile to this file"),

		warmFork: fs.Bool("warmfork", false, "run every warmup under the no-prefetch baseline and fork grid points from one warm checkpoint per benchmark"),
		ckptDir:  fs.String("checkpoint-dir", "", "persist warm checkpoints and per-job result manifests in this directory"),
		resume:   fs.Bool("resume", false, "answer already-completed jobs from -checkpoint-dir manifests instead of re-simulating"),

		workers:  fs.Int("workers", 0, "join a distributed run splitting this grid over -checkpoint-dir (the value is advisory: any number of workers may cooperate)"),
		workerID: fs.String("worker-id", "", "unique id for this worker in a distributed run (default hostname-pid; requires -workers)"),
		leaseTTL: fs.Duration("lease-ttl", 30*time.Second, "heartbeat staleness horizon before a crashed worker's job leases may be stolen"),
		gather:   fs.Bool("gather", false, "assemble a completed distributed run from -checkpoint-dir manifests without simulating grid points; errors if any job is missing (tcpfigs' miss-stream passes for fig2-fig7, fig15 and coverage are not grid jobs and still simulate)"),
	}
}

// usageError is a flag value the command rejects with exit status 2.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func usage(format string, a ...any) error {
	return &usageError{fmt.Errorf(format, a...)}
}

// StartProfile starts -cpuprofile/-memprofile. The returned stop must run
// before the process exits.
func (f *Flags) StartProfile() (stop func(), err error) {
	return profiling.Start(*f.cpuProfile, *f.memProfile)
}

// Run is a validated grid run: its Options carry the wired Runner.
type Run struct {
	Options experiment.Options

	tool string
}

// Bind validates the flags and returns the run they describe. exp is the
// experiment id recorded in grid.json; the caller checks it against its
// own table first. Every flag is checked before the checkpoint directory
// is touched. Pass a returned error to Exit.
func (f *Flags) Bind(exp string) (*Run, error) {
	fid, err := sim.ParseFidelity(*f.fidelity)
	if err != nil {
		return nil, usage("-warmup-fidelity: %w", err)
	}
	if *f.n == 0 {
		return nil, &usageError{&sim.ConfigError{Field: "Instructions", Reason: "measured window is zero"}}
	}
	// Options reads a zero warmup as its 2 M default, so -warmup 0 would
	// simulate that default while grid.json recorded 0.
	if *f.warmup == 0 {
		return nil, &usageError{&sim.ConfigError{Field: "Warmup", Reason: "warmup window is zero"}}
	}
	o := experiment.Options{Instructions: *f.n, Warmup: *f.warmup, Seed: *f.seed,
		WarmupFidelity: fid, BaselineWarmup: *f.warmFork}
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
	if fid != sim.FidelityFull {
		fidDesc = string(fid)
	}
	desc := experiment.GridDesc{Tool: f.tool, Experiment: exp,
		Instructions: *f.n, Warmup: *f.warmup, WarmupFidelity: fidDesc,
		Seed: *f.seed, Benches: benches, WarmFork: *f.warmFork}
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
	o.Runner.SetStrictGather(*f.gather)
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
	if hits := run.StoreStats(); hits > 0 {
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
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.tool, err)
	var ige *experiment.IncompleteGridError
	if errors.As(err, &ige) {
		if herr := fleetobs.WriteHoles(os.Stderr, *f.ckptDir); herr != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.tool, herr)
		}
	}
	return exitCode(err)
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
