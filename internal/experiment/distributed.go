package experiment

// Distributed sweeps: N runner processes (on one or many hosts sharing the
// checkpoint directory) split one experiment grid. Jobs are identified by
// their result-manifest filename; the distrib lease store arbitrates who
// simulates each one, manifests publish results atomically, and every
// worker blocks on peers' manifests for jobs it did not claim — so every
// worker finishes holding the complete grid and renders output
// byte-identical to a serial run. A final gather pass (Gather) re-renders
// the same output from manifests alone and names every hole instead of
// quietly re-simulating. See docs/DISTRIBUTED.md for the protocol and the
// failure matrix.

import (
	"fmt"
	"slices"
	"strings"

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

// Gather answers a grid from result manifests in one pass and simulates
// nothing: the -gather pass of tcpsweep and tcpfigs, and the sweep
// daemon's answer to a request. As a Runner's answer hook
// (SetAnswer(g.Answer)) it dedupes every submitted batch on JobName,
// looks each new point up once and hands every submission, repeats
// included, its point's result; a point the lookup misses gets a zero
// result and is recorded as missing. Output rendered while Err is nil is
// byte-identical to a serial run over the same points.
type Gather struct {
	// Jobs are the grid's distinct points in first-submission order,
	// Names their JobNames, and Missing the indexes the lookup missed.
	Jobs    []Job
	Names   []string
	Missing []int

	lookup   func(Job) (sim.Result, bool)
	budget   int
	index    map[string]int
	answered []*sim.Result // each point's result where Answer first handed it out
}

// NewGather returns a pass answering each point through lookup. It looks
// nothing up once the grid holds more than budget points, so a grid
// submitted in one batch, as every Sweeps row is, and rejected for its
// size costs no manifest read.
func NewGather(lookup func(Job) (sim.Result, bool), budget int) *Gather {
	return &Gather{lookup: lookup, budget: budget, index: make(map[string]int)}
}

// Answer is the Runner answer hook.
func (g *Gather) Answer(batch []Job) []sim.Result {
	at := make([]int, len(batch))
	g.Jobs = slices.Grow(g.Jobs, len(batch))
	g.Names = slices.Grow(g.Names, len(batch))
	for k, j := range batch {
		name := JobName(j)
		i, seen := g.index[name]
		if !seen {
			i = len(g.Jobs)
			g.index[name] = i
			g.Jobs = append(g.Jobs, j)
			g.Names = append(g.Names, name)
		}
		at[k] = i
	}
	out := make([]sim.Result, len(batch))
	if len(g.Jobs) > g.budget {
		return out
	}
	// Points are numbered in first-seen order, so the first point not yet
	// answered is the next new one: it is looked up where it first appears
	// and copied to its repeats.
	for k, i := range at {
		if i < len(g.answered) {
			out[k] = *g.answered[i]
			continue
		}
		res, ok := g.lookup(g.Jobs[i])
		if !ok {
			g.Missing = append(g.Missing, i)
		}
		out[k] = res
		g.answered = append(g.answered, &out[k])
	}
	return out
}

// Err returns nil when every point submitted so far was found, else an
// *IncompleteGridError naming every missing point. A nil Gather has none.
func (g *Gather) Err() error {
	if g == nil || len(g.Missing) == 0 {
		return nil
	}
	e := &IncompleteGridError{}
	for _, i := range g.Missing {
		e.Jobs = append(e.Jobs, g.Jobs[i])
		e.Names = append(e.Names, g.Names[i])
	}
	return e
}

// IncompleteGridError reports the points a gather found no manifest for:
// the distributed workers have not (yet) covered the grid, or a manifest
// was deleted. Names are their manifest filenames, to match against lease
// files and flight logs in the checkpoint directory.
type IncompleteGridError struct {
	Jobs  []Job
	Names []string
}

func (e *IncompleteGridError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment: gather: no manifest for %d grid point(s) — the distributed workers have not completed this grid:", len(e.Names))
	for i, j := range e.Jobs {
		fmt.Fprintf(&b, " %s (%s/%s)", e.Names[i], j.Bench, j.Factory.Name)
	}
	return b.String()
}

// runDistributed resolves one job against the shared directory: answer it
// from a manifest, or claim and simulate it, or wait (with stale-lease
// stealing) for the worker that holds it. It only returns with the job's
// result.
func (r *Runner) runDistributed(j Job) sim.Result {
	name := JobName(j)
	for attempt := 0; ; attempt++ {
		if res, ok := r.store.LookupJob(j); ok {
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
