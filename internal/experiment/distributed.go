package experiment

// Distributed sweeps: N runner processes (on one or many hosts sharing the
// checkpoint directory) split one experiment grid. Jobs are identified by
// their result-manifest filename; the distrib lease store arbitrates who
// simulates each one, manifests publish results atomically, and every
// worker blocks on peers' manifests for jobs it did not claim — so every
// worker finishes holding the complete grid and renders output
// byte-identical to a serial run. A final strict-gather pass re-renders
// the same output from manifests alone, erroring on any hole instead of
// quietly re-simulating. See docs/DISTRIBUTED.md for the protocol and the
// failure matrix.

import (
	"fmt"

	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
)

// SetClaims enables distributed execution: jobs are claimed through the
// lease store before simulating, results of jobs other workers claimed
// are awaited from their manifests, and stale leases (crashed workers)
// are reclaimed. Requires a ResultStore opened in resume mode on the same
// directory. Call before submitting jobs.
func (r *Runner) SetClaims(c *distrib.Store) { r.claims = c }

// SetStrictGather makes the runner refuse to simulate any job: every one
// must be answered by an existing manifest, and a missing or unreadable
// manifest raises *IncompleteGridError. This is the -gather pass of a
// distributed sweep — it assembles output from completed manifests and
// proves the workers covered the whole grid.
func (r *Runner) SetStrictGather(on bool) { r.strict = on }

// StoreStats reports how many job submissions were answered from result
// manifests on disk.
func (r *Runner) StoreStats() (manifestHits uint64) { return r.storeHits.Load() }

// WorkerStats reports the attached lease store's claim-protocol counters
// and this runner's manifest hits as one worker record: the -json report
// entry of a tcpsweep/tcpfigs worker and a sweep daemon worker's status
// row. ok is false when no lease store is attached.
func (r *Runner) WorkerStats() (ws telemetry.WorkerStats, ok bool) {
	if r.claims == nil {
		return ws, false
	}
	st := r.claims.Stats()
	return telemetry.WorkerStats{
		ID: r.claims.Worker(), Claims: st.Claims, ClaimConflicts: st.ClaimConflicts,
		Steals: st.Steals, StealRaces: st.StealRaces, Heartbeats: st.Heartbeats,
		LeasesLost: st.LeasesLost, Releases: st.Releases, WaitPolls: st.WaitPolls,
		ManifestHits: r.StoreStats()}, true
}

// IncompleteGridError reports a strict gather that found no manifest for a
// job, meaning the distributed workers have not (yet) covered the grid.
// It is raised as a panic through Runner.Map (like MustRun's unknown
// benchmark) and surfaced as an error by the command-line tools.
type IncompleteGridError struct {
	Bench    string
	Factory  string
	Baseline bool
	// Job is the missing manifest's filename, so operators can match the
	// hole against lease files and flight logs in the checkpoint directory
	// (tcpstatus reports the last-known holder per job).
	Job string
}

func (e *IncompleteGridError) Error() string {
	kind := "job"
	if e.Baseline {
		kind = "baseline job"
	}
	return fmt.Sprintf("experiment: gather: no manifest %s for %s %s/%s — the distributed workers have not completed this grid",
		e.Job, kind, e.Bench, e.Factory)
}

// CatchIncomplete runs fn and returns the *IncompleteGridError a strict
// gather raised inside it as an ordinary error. Any other panic propagates.
func CatchIncomplete(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			ige, ok := p.(*IncompleteGridError)
			if !ok {
				panic(p)
			}
			err = ige
		}
	}()
	fn()
	return nil
}

// requireComplete enforces strict-gather mode for a job whose manifest
// lookup just missed.
func (r *Runner) requireComplete(j Job) {
	if !r.strict {
		return
	}
	panic(&IncompleteGridError{Bench: j.Bench, Factory: j.Factory.Name, Baseline: j.Baseline,
		Job: JobName(j)})
}

// runDistributed resolves one job against the shared directory: answer it
// from a manifest, or claim and simulate it, or wait (with stale-lease
// stealing) for the worker that holds it. It only returns with the job's
// result.
func (r *Runner) runDistributed(j Job) sim.Result {
	name := JobName(j)
	for attempt := 0; ; attempt++ {
		if res, ok := r.store.Lookup(j.Bench, j.Factory.Name, j.Baseline, j.Config); ok {
			r.storeHits.Add(1)
			return res
		}
		claim, got, err := r.claims.TryClaim(name)
		if err != nil {
			// Shared storage failed under us: simulate locally rather
			// than wedging the sweep — the result is correct, it is just
			// not published for peers.
			return r.simulate(j.Bench, j.Factory, j.Config)
		}
		if got {
			return r.runClaimed(claim, name, j)
		}
		r.claims.AwaitRetry(name, attempt)
	}
}

// runClaimed executes a job this worker holds the lease for: heartbeat
// while simulating, publish the manifest, release the lease. Injected
// crashes (*distrib.Crash) abandon the lease exactly as a killed process
// would — heartbeats stop, the lease file stays — so the fault-injection
// tests exercise the same on-disk states real failures leave.
func (r *Runner) runClaimed(claim *distrib.Claim, name string, j Job) sim.Result {
	released := false
	defer func() {
		if released {
			return
		}
		p := recover()
		if c, crashed := p.(*distrib.Crash); crashed {
			// Record the crash point before abandoning: a real kill leaves
			// no event, but injected crashes are test scaffolding and the
			// timeline is far more readable with the point in it.
			r.claims.Recorder().RecordPoint(name, distrib.EventCrash, c.Point)
			claim.Abandon()
		} else {
			claim.Release()
		}
		if p != nil {
			panic(p)
		}
	}()
	r.claims.Faults().Fire(distrib.AfterClaim, name)
	claim.Start()
	res := r.simulate(j.Bench, j.Factory, j.Config)
	r.claims.Faults().Fire(distrib.MidJob, name)
	r.store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config, res) // distrib.BeforeRename fires inside
	claim.Release()
	released = true
	return res
}
