// Package fleetobs is the read-only observability engine for distributed
// sweeps: it scans a shared checkpoint directory — grid.json, result
// manifests, lease files, flight-recorder logs — and computes a
// deterministic FleetSnapshot of where every job and worker stands, without
// ever writing to the directory or participating in the claim protocol.
//
// The package is consumed three ways: cmd/tcpstatus renders snapshots as a
// one-shot table, a -watch live view, or -json machine output, or serves
// them over a -status-addr HTTP listener (/status JSON, /metrics
// Prometheus text), as the sweep daemon does next to its API; and the
// gather error path lists incomplete jobs with their last-known lease
// holders. Everything is driven through distrib.Clock, so under the manual
// test clock every snapshot and timeline byte is deterministic.
//
// Observation is advisory by construction: the claim protocol's
// correctness rests on atomic manifest publication, not on anything a
// reader does, so a scan racing live workers can at worst see a job one
// transition out of date — never corrupt one.
package fleetobs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
)

// JobState classifies one job's place in the claim-execute-publish
// lifecycle, as reconstructible from the directory alone.
type JobState string

const (
	// JobPending: no manifest, no lease — unclaimed work.
	JobPending JobState = "pending"
	// JobClaimed: a fresh lease exists but has never been renewed; the
	// holder claimed it and has not yet heartbeaten.
	JobClaimed JobState = "claimed"
	// JobRunning: a fresh lease with at least one renewal — the holder is
	// alive and simulating.
	JobRunning JobState = "running"
	// JobStale: the lease's heartbeat aged past its TTL (or the lease is
	// corrupt); the holder is presumed dead and the job is steal-eligible.
	JobStale JobState = "stale"
	// JobStolen: no lease and no manifest, but the flight log's last
	// ownership transition is a steal — the job is between a steal and the
	// stealer's re-claim.
	JobStolen JobState = "stolen"
	// JobDone: the result manifest exists.
	JobDone JobState = "done"
)

// JobStatus is one job's row in a snapshot.
type JobStatus struct {
	// Job is the manifest filename identifying the job.
	Job   string   `json:"job"`
	State JobState `json:"state"`
	// Worker is the current lease holder, or for done/stolen jobs the last
	// worker the flight log shows touching the job.
	Worker string `json:"worker,omitempty"`
	// HeartbeatAgeNS is now minus the lease heartbeat (live or stale
	// leases only).
	HeartbeatAgeNS int64 `json:"heartbeat_age_ns,omitempty"`
	// TTLNS is the lease's staleness horizon.
	TTLNS int64 `json:"ttl_ns,omitempty"`
	// Seq is the lease renewal count.
	Seq uint64 `json:"seq,omitempty"`
	// Steals counts steal events in the job's flight log.
	Steals int `json:"steals,omitempty"`
	// WallNS is claim-to-manifest-commit wall time from the flight log
	// (done jobs with a recorded lifecycle only).
	WallNS int64 `json:"wall_ns,omitempty"`
}

// WorkerStatus aggregates one worker's footprint across the directory.
type WorkerStatus struct {
	ID string `json:"id"`
	// Fresh reports whether the worker currently holds at least one lease
	// with an unexpired heartbeat.
	Fresh bool `json:"fresh"`
	// LastSeenAgeNS is now minus the newest trace of the worker (lease
	// heartbeat or flight-log event); -1 when the worker left no
	// timestamped trace.
	LastSeenAgeNS int64 `json:"last_seen_age_ns"`
	// Claimed counts fresh leases held now (claimed or running jobs).
	Claimed int `json:"claimed,omitempty"`
	// Stale counts expired leases still on disk under this worker's name.
	Stale int `json:"stale,omitempty"`
	// Done counts manifest commits recorded by this worker.
	Done int `json:"done,omitempty"`
	// Steals counts leases this worker reclaimed.
	Steals int `json:"steals,omitempty"`
	// MeanJobNS is the mean claim-to-commit wall time of this worker's
	// completed jobs (throughput: jobs finish every MeanJobNS on average).
	MeanJobNS int64 `json:"mean_job_ns,omitempty"`
}

// StateCounts tallies jobs per state.
type StateCounts struct {
	Pending int `json:"pending"`
	Claimed int `json:"claimed"`
	Running int `json:"running"`
	Stale   int `json:"stale"`
	Stolen  int `json:"stolen"`
	Done    int `json:"done"`
}

// FleetSnapshot is one deterministic observation of a checkpoint
// directory: jobs and workers sorted by name, counts, completion, and an
// ETA extrapolated from completed-job wall times.
type FleetSnapshot struct {
	Dir   string `json:"dir"`
	NowNS int64  `json:"now_ns"`
	// Grid is the recorded grid descriptor, when one exists.
	Grid    *experiment.GridDesc `json:"grid,omitempty"`
	Jobs    []JobStatus          `json:"jobs"`
	Workers []WorkerStatus       `json:"workers"`
	States  StateCounts          `json:"states"`
	// Total and Done count discovered jobs; jobs no worker has touched yet
	// leave no trace on disk, so Total is a lower bound until the grid is
	// fully claimed.
	Total int `json:"total"`
	Done  int `json:"done"`
	// CompletionPct is 100*Done/Total over discovered jobs.
	CompletionPct float64 `json:"completion_pct"`
	// MeanJobNS is the mean wall time across all completed jobs with a
	// recorded lifecycle.
	MeanJobNS int64 `json:"mean_job_ns,omitempty"`
	// ETANS extrapolates time to finish the remaining discovered jobs:
	// MeanJobNS * remaining / fresh-worker count. Zero when unknowable (no
	// completed walls, no fresh workers, or nothing remaining).
	ETANS int64 `json:"eta_ns,omitempty"`
	// CorruptLeases counts lease files that failed validation.
	CorruptLeases int `json:"corrupt_leases,omitempty"`
}

// jobInfo accumulates every trace of one job found during a directory walk.
type jobInfo struct {
	done    bool
	lease   *distrib.Lease
	corrupt bool
	flight  []distrib.FlightEvent
}

// Scan observes dir once and computes a snapshot. A nil clock selects
// distrib.System. A directory that does not exist yet — the sweep was
// launched but no worker has created it — yields an empty (zero-job)
// snapshot rather than an error, so status endpoints stay up during
// bootstrap; any other read failure is an error.
func Scan(dir string, clock distrib.Clock) (*FleetSnapshot, error) {
	if clock == nil {
		clock = distrib.System
	}
	now := clock.Now()
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}

	jobs := make(map[string]*jobInfo)
	get := func(job string) *jobInfo {
		ji, ok := jobs[job]
		if !ok {
			ji = &jobInfo{}
			jobs[job] = ji
		}
		return ji
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, distrib.FlightSuffix):
			job := strings.TrimSuffix(name, distrib.FlightSuffix)
			if !experiment.IsJobFile(job) {
				continue
			}
			evs, err := distrib.ReadFlight(filepath.Join(dir, name))
			if err == nil {
				get(job).flight = evs
			}
		case strings.HasSuffix(name, distrib.LeaseSuffix):
			job := strings.TrimSuffix(name, distrib.LeaseSuffix)
			if !experiment.IsJobFile(job) {
				continue
			}
			ji := get(job)
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				continue // lease released between ReadDir and read
			}
			if l, perr := distrib.ParseLease(data); perr == nil && l.Job == job {
				ji.lease = &l
			} else {
				ji.corrupt = true
			}
		case experiment.IsJobFile(name):
			get(name).done = true
		}
	}

	snap := &FleetSnapshot{Dir: dir, NowNS: now, Jobs: []JobStatus{}, Workers: []WorkerStatus{}}
	if g, err := experiment.ReadGrid(dir); err == nil {
		snap.Grid = &g
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}

	type wacc struct {
		fresh                        bool
		haveSeen                     bool
		lastSeen                     int64
		claimed, stale, done, steals int
		wallSum                      int64
		wallN                        int
	}
	workers := make(map[string]*wacc)
	wget := func(id string) *wacc {
		if id == "" {
			return &wacc{} // discarded scratch for identity-less traces
		}
		w, ok := workers[id]
		if !ok {
			w = &wacc{}
			workers[id] = w
		}
		return w
	}
	see := func(w *wacc, t int64) {
		if !w.haveSeen || t > w.lastSeen {
			w.haveSeen, w.lastSeen = true, t
		}
	}

	names := make([]string, 0, len(jobs))
	for name := range jobs {
		names = append(names, name)
	}
	sort.Strings(names)

	var wallSum int64
	var wallN int
	for _, name := range names {
		ji := jobs[name]
		js := JobStatus{Job: name}

		for _, ev := range ji.flight {
			w := wget(ev.Worker)
			see(w, ev.T)
			switch ev.Event {
			case distrib.EventSteal:
				js.Steals++
				w.steals++
			case distrib.EventManifestCommit:
				w.done++
			}
		}
		if worker, wall, ok := jobWall(ji.flight); ok {
			js.WallNS = wall
			wallSum += wall
			wallN++
			w := wget(worker)
			w.wallSum += wall
			w.wallN++
		}

		switch {
		case ji.done:
			js.State = JobDone
			snap.States.Done++
			js.Worker = lastWorker(ji.flight)
		case ji.lease != nil:
			l := ji.lease
			js.Worker = l.Worker
			js.HeartbeatAgeNS = now - l.Heartbeat
			js.TTLNS = l.TTL
			js.Seq = l.Seq
			w := wget(l.Worker)
			see(w, l.Heartbeat)
			if l.Expired(now) {
				js.State = JobStale
				snap.States.Stale++
				w.stale++
			} else if l.Seq > 0 {
				js.State = JobRunning
				snap.States.Running++
				w.fresh = true
				w.claimed++
			} else {
				js.State = JobClaimed
				snap.States.Claimed++
				w.fresh = true
				w.claimed++
			}
		case ji.corrupt:
			js.State = JobStale
			snap.States.Stale++
			snap.CorruptLeases++
		case lastOwnershipIsSteal(ji.flight):
			js.State = JobStolen
			snap.States.Stolen++
			js.Worker = lastWorker(ji.flight)
		default:
			js.State = JobPending
			snap.States.Pending++
			js.Worker = lastWorker(ji.flight)
		}
		snap.Jobs = append(snap.Jobs, js)
	}

	snap.Total = len(snap.Jobs)
	snap.Done = snap.States.Done
	if snap.Total > 0 {
		snap.CompletionPct = 100 * float64(snap.Done) / float64(snap.Total)
	}
	if wallN > 0 {
		snap.MeanJobNS = wallSum / int64(wallN)
	}

	ids := make([]string, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	freshWorkers := 0
	for _, id := range ids {
		w := workers[id]
		ws := WorkerStatus{
			ID:            id,
			Fresh:         w.fresh,
			LastSeenAgeNS: -1,
			Claimed:       w.claimed,
			Stale:         w.stale,
			Done:          w.done,
			Steals:        w.steals,
		}
		if w.haveSeen {
			ws.LastSeenAgeNS = now - w.lastSeen
		}
		if w.wallN > 0 {
			ws.MeanJobNS = w.wallSum / int64(w.wallN)
		}
		if w.fresh {
			freshWorkers++
		}
		snap.Workers = append(snap.Workers, ws)
	}

	if remaining := snap.Total - snap.Done; remaining > 0 && snap.MeanJobNS > 0 && freshWorkers > 0 {
		snap.ETANS = snap.MeanJobNS * int64(remaining) / int64(freshWorkers)
	}
	return snap, nil
}

// jobWall extracts the completed job's claim-to-commit wall time from its
// flight log: the last manifest-commit event paired with the latest
// claim/steal by the same worker at or before it.
func jobWall(evs []distrib.FlightEvent) (worker string, wall int64, ok bool) {
	commit := -1
	for i, ev := range evs {
		if ev.Event == distrib.EventManifestCommit {
			commit = i
		}
	}
	if commit < 0 {
		return "", 0, false
	}
	c := evs[commit]
	for i := commit - 1; i >= 0; i-- {
		ev := evs[i]
		if ev.Worker != c.Worker {
			continue
		}
		if ev.Event == distrib.EventClaim || ev.Event == distrib.EventSteal {
			if w := c.T - ev.T; w >= 0 {
				return c.Worker, w, true
			}
			return "", 0, false
		}
	}
	return "", 0, false
}

// lastOwnershipIsSteal reports whether the newest ownership transition in
// the flight log is a steal (claim, steal, release, crash, and lease-lost
// all transfer or end ownership).
func lastOwnershipIsSteal(evs []distrib.FlightEvent) bool {
	for i := len(evs) - 1; i >= 0; i-- {
		switch evs[i].Event {
		case distrib.EventSteal:
			return true
		case distrib.EventClaim, distrib.EventRelease, distrib.EventCrash, distrib.EventLeaseLost:
			return false
		}
	}
	return false
}

// lastWorker returns the worker of the newest flight event, if any.
func lastWorker(evs []distrib.FlightEvent) string {
	if len(evs) == 0 {
		return ""
	}
	return evs[len(evs)-1].Worker
}

// Rollup aggregates the snapshot's view of a named job subset — typically
// one sweep's job set inside a directory shared by many sweeps. Jobs
// absent from the snapshot have left no trace on disk (no lease, flight
// log or manifest) and count as pending. Statuses are returned in the
// jobs argument's order, so callers control presentation without
// re-sorting. The sweep daemon (internal/sweepd) renders its per-sweep
// job-state rollups through this.
func (s *FleetSnapshot) Rollup(jobs []string) (StateCounts, []JobStatus) {
	byName := make(map[string]JobStatus, len(s.Jobs))
	for _, js := range s.Jobs {
		byName[js.Job] = js
	}
	var counts StateCounts
	out := make([]JobStatus, 0, len(jobs))
	for _, name := range jobs {
		js, ok := byName[name]
		if !ok {
			js = JobStatus{Job: name, State: JobPending}
		}
		switch js.State {
		case JobPending:
			counts.Pending++
		case JobClaimed:
			counts.Claimed++
		case JobRunning:
			counts.Running++
		case JobStale:
			counts.Stale++
		case JobStolen:
			counts.Stolen++
		case JobDone:
			counts.Done++
		}
		out = append(out, js)
	}
	return counts, out
}

// Lookup returns the snapshot row for one job.
func (s *FleetSnapshot) Lookup(job string) (JobStatus, bool) {
	for _, js := range s.Jobs {
		if js.Job == job {
			return js, true
		}
	}
	return JobStatus{}, false
}
