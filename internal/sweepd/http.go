package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// Request is the POST /v1/sweeps body. Every omitted or zero numeric field
// selects the tcpfigs default, so the JSON `{"sweep":"size"}` and the CLI
// `tcpfigs -exp size` describe the same grid.
type Request struct {
	// Sweep names the grid: a row of experiment.Rows, the table behind
	// tcpfigs' -exp.
	Sweep string `json:"sweep"`
	// Benches restricts the benchmark set (default: all 26, paper order).
	// Order matters: it shapes the rendered result body.
	Benches []string `json:"benches,omitempty"`
	// Instructions measured per run (default sim.DefaultInstructions).
	Instructions uint64 `json:"instructions,omitempty"`
	// Warmup instructions per run (default sim.DefaultWarmup). As in
	// experiment.Options, 0 means unset: a grid always warms.
	Warmup uint64 `json:"warmup,omitempty"`
	// WarmupFidelity is "full" (default) or "fast" (docs/FASTFORWARD.md).
	WarmupFidelity string `json:"warmup_fidelity,omitempty"`
	// Seed for the workload models (default sim.DefaultSeed).
	Seed uint64 `json:"seed,omitempty"`
	// WarmFork warms every point under the no-prefetch baseline and forks
	// grid points from per-benchmark warm checkpoints.
	WarmFork bool `json:"warm_fork,omitempty"`
	// Tenant is the fairness/accounting identity. Falls back to the
	// X-Tenant header, then "anonymous".
	Tenant string `json:"tenant,omitempty"`
	// MaxJobs lowers this request's job budget below the daemon's
	// MaxJobsPerSweep. A plan larger than the budget is rejected with 400.
	MaxJobs int `json:"max_jobs,omitempty"`
}

// RequestError is a 400: the request names something the daemon cannot
// serve. Field identifies the offending JSON field.
type RequestError struct {
	Field  string
	Reason string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("sweepd: invalid request: %s: %s", e.Field, e.Reason)
}

// JobCounts summarizes a sweep's job accounting in status responses.
type JobCounts struct {
	// Total is the deduplicated grid size.
	Total int `json:"total"`
	// CachedAtSubmit is how many points the cache answered on admission.
	CachedAtSubmit int `json:"cached_at_submit"`
	// Executed is how many points this daemon's workers completed.
	Executed int `json:"executed"`
	// Pending is how many points still lack a manifest.
	Pending int `json:"pending"`
}

// Status is the GET /v1/sweeps/{id} (and POST) response body.
type Status struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	Sweep     string    `json:"sweep"`
	State     string    `json:"state"`
	CreatedNS int64     `json:"created_ns"`
	Jobs      JobCounts `json:"jobs"`
	// States rolls the sweep's job set up through a fleetobs scan of the
	// cache directory (GET only; zero-valued in POST responses).
	States *fleetobs.StateCounts `json:"states,omitempty"`
	// Failure describes the first failed job of a failed sweep.
	Failure string `json:"failure,omitempty"`
	// Workers reports the daemon's in-process fleet counters.
	Workers []telemetry.WorkerStats `json:"workers,omitempty"`
}

// errorBody is every non-2xx JSON payload.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// Handler returns the daemon's route mux: the /v1 sweep API plus the
// fleetobs /status and /metrics views over the cache directory
// (the /metrics exposition includes the sweepd.* families via AddMetrics).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleCreate)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	obs := s.obs.Handler()
	mux.Handle("/status", obs)
	mux.Handle("/metrics", obs)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-response is not actionable
}

func writeError(w http.ResponseWriter, code int, err error) {
	body := errorBody{Error: err.Error()}
	var re *RequestError
	if errors.As(err, &re) {
		body.Field = re.Field
	}
	writeJSON(w, code, body)
}

// configFields maps each sim.Config field that Validate checks and a
// Request sets to its JSON name, so a *sim.ConfigError is reported on the
// field the client sent.
var configFields = map[string]string{
	"Instructions":   "instructions",
	"Warmup":         "warmup",
	"WarmupFidelity": "warmup_fidelity",
}

// normalize validates a request and fills defaults in place. The returned
// error is always a *RequestError. The window and benches are checked by
// experiment.Options.Validate, the same check tcpfigs' flags pass.
func normalize(req *Request, headerTenant string) error {
	if _, err := experiment.Lookup(req.Sweep); err != nil {
		return &RequestError{Field: "sweep", Reason: err.Error()}
	}
	if req.Instructions == 0 {
		req.Instructions = sim.DefaultInstructions
	}
	if req.Warmup == 0 {
		req.Warmup = sim.DefaultWarmup
	}
	if req.Seed == 0 {
		req.Seed = sim.DefaultSeed
	}
	fid, err := sim.ParseFidelity(req.WarmupFidelity)
	if err != nil {
		return &RequestError{Field: "warmup_fidelity", Reason: err.Error()}
	}
	req.WarmupFidelity = string(fid)
	if len(req.Benches) == 0 {
		req.Benches = workload.Names()
	}
	if err := options(*req, nil).Validate(); err != nil {
		var ce *sim.ConfigError
		if errors.As(err, &ce) {
			return &RequestError{Field: configFields[ce.Field], Reason: ce.Reason}
		}
		return &RequestError{Field: "benches", Reason: err.Error()}
	}
	if req.Tenant == "" {
		req.Tenant = headerTenant
	}
	if req.Tenant == "" {
		req.Tenant = "anonymous"
	}
	if req.MaxJobs < 0 {
		return &RequestError{Field: "max_jobs", Reason: "must be non-negative"}
	}
	return nil
}

// decodeRequest parses a POST /v1/sweeps body: one JSON object, rejecting
// unknown fields (typo protection) and anything but whitespace after the
// object. The error is a *RequestError on field "body".
func decodeRequest(body io.Reader) (Request, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return req, &RequestError{Field: "body", Reason: err.Error()}
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, &RequestError{Field: "body", Reason: "data after the request object"}
	}
	return req, nil
}

// handleCreate admits a sweep: decode, validate, dedup against an existing
// identical sweep, then answer the request in one pass (plan, cache probe
// and, when every point hits, the rendered body) and queue the misses — or
// push back.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.mInvalid.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := normalize(&req, r.Header.Get("X-Tenant")); err != nil {
		s.mInvalid.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.tenantRec(req.Tenant).requests++
	s.mu.Unlock()

	id := sweepID(req.Tenant, req)
	s.mu.Lock()
	if sw, ok := s.sweeps[id]; ok && sw.state != StateCancelled && sw.state != StateFailed {
		status := s.statusLocked(sw)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, status)
		return
	}
	s.mu.Unlock()

	// Answer outside the lock: the pass runs the sweep definition (no
	// simulation), rejects a grid over the job budget and reads manifests.
	g, body, err := s.answerFor(req)
	if err != nil {
		s.mInvalid.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cached := len(g.Jobs) - len(g.Missing)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("sweepd: shutting down"))
		return
	}
	// Re-check identity: a concurrent identical POST may have won.
	if sw, ok := s.sweeps[id]; ok && sw.state != StateCancelled && sw.state != StateFailed {
		status := s.statusLocked(sw)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, status)
		return
	}
	if s.sched.queued+len(g.Missing) > s.cfg.MaxQueuedJobs {
		retry := s.retryAfterLocked()
		s.mRejected.Inc()
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("sweepd: queue full (%d queued, %d requested, limit %d)",
				s.sched.queued, len(g.Missing), s.cfg.MaxQueuedJobs))
		return
	}
	sw := &sweepRec{
		id: id, tenant: req.Tenant, req: req,
		state:     StateQueued,
		createdNS: s.cfg.Clock.Now(),
		jobs:      g.Jobs, jobNames: g.Names,
		pending: make(map[string]bool, len(g.Missing)),
		cached:  cached,
		result:  body,
	}
	refs := make([]jobRef, len(g.Missing))
	for i, m := range g.Missing {
		sw.pending[g.Names[m]] = true
		refs[i] = jobRef{sw: sw, job: g.Jobs[m], name: g.Names[m]}
	}
	s.sweeps[id] = sw
	s.mJobsCached.Add(uint64(cached))
	s.tenantRec(req.Tenant).jobsCached += uint64(cached)
	s.tenantActive(req.Tenant, 1) // until retireLocked
	if len(refs) == 0 {
		sw.state = StateDone
		s.mSweepsDone.Inc()
		s.retireLocked(sw)
	} else {
		s.sched.push(req.Tenant, refs...)
		s.cond.Broadcast()
	}
	status := s.statusLocked(sw)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, status)
}

// retryAfterLocked estimates seconds until queue capacity frees: the
// queued backlog spread across the worker pool at a floor of one second
// per job slot. Deliberately crude — the header's contract is "not yet,
// come back later", not an SLA.
func (s *Server) retryAfterLocked() int {
	workers := len(s.workers)
	if workers == 0 {
		workers = s.cfg.Workers
	}
	retry := s.sched.queued / workers
	if retry < 1 {
		retry = 1
	}
	return retry
}

// statusLocked builds a sweep's status body without the fleet rollup,
// which only GET attaches (no fleet scan on the admission path). Callers
// hold s.mu.
func (s *Server) statusLocked(sw *sweepRec) Status {
	return Status{
		ID: sw.id, Tenant: sw.tenant, Sweep: sw.req.Sweep,
		State: sw.state, CreatedNS: sw.createdNS,
		Jobs: JobCounts{
			Total:          len(sw.jobs),
			CachedAtSubmit: sw.cached,
			Executed:       sw.executed,
			Pending:        len(sw.pending),
		},
		Failure: sw.failure,
		Workers: s.workerStats(),
	}
}

// handleStatus reports one sweep, rolling its job set up through a fresh
// fleetobs scan so the response shows claim/lease-level detail even for
// jobs external fleet workers are running.
//
// The status is taken before the scan, which runs outside s.mu. A job's
// manifest is written before finish can mark its sweep done, so a done
// state read first implies a rollup with every job done; scanning first
// could pair a later done with a rollup from before the last manifest.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	var status Status
	var jobNames []string
	if ok {
		status = s.statusLocked(sw)
		jobNames = append(jobNames, sw.jobNames...)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sweepd: unknown sweep %q", id))
		return
	}
	if snap, err := fleetobs.Scan(s.cacheDir, s.cfg.Clock); err == nil {
		counts, _ := snap.Rollup(jobNames)
		status.States = &counts
	}
	writeJSON(w, http.StatusOK, status)
}

// handleResult serves a completed sweep's rendered output — byte-identical
// to `tcpfigs -exp <name> -gather` over the same manifests. A sweep
// answered entirely from the cache holds its body from admission; any
// other renders it once, through the same pass, at its first GET.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("sweepd: unknown sweep %q", id))
		return
	}
	if sw.state != StateDone {
		state := sw.state
		failure := sw.failure
		s.mu.Unlock()
		err := fmt.Errorf("sweepd: sweep %s is %s, result not available", id, state)
		if failure != "" {
			err = fmt.Errorf("%s (%s)", err, failure)
		}
		writeError(w, http.StatusConflict, err)
		return
	}
	body := sw.result
	s.mu.Unlock()
	if body == nil {
		g, answered, err := s.answerFor(sw.req)
		if err == nil {
			// A done sweep with a point missing means manifests were
			// deleted out from under the cache; the grid must re-run.
			err = g.Err()
		}
		if err != nil {
			writeError(w, http.StatusConflict, err)
			return
		}
		s.mu.Lock()
		if sw.result == nil {
			sw.result = answered
		}
		body = sw.result
		s.mu.Unlock()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body) //nolint:errcheck // client gone mid-response is not actionable
}

// handleCancel cancels a queued or running sweep, eagerly releasing its
// queued jobs (relieving backpressure); in-flight jobs finish their
// current simulation and are then ignored. Cancelling an already-cancelled
// sweep is a no-op 200; a done sweep conflicts.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("sweepd: unknown sweep %q", id))
		return
	}
	switch sw.state {
	case StateDone:
		s.mu.Unlock()
		writeError(w, http.StatusConflict,
			fmt.Errorf("sweepd: sweep %s is done; nothing to cancel", id))
		return
	case StateCancelled, StateFailed:
		// Idempotent: already terminal.
	default:
		sw.state = StateCancelled
		s.sched.removeSweep(sw)
		s.mSweepsCanceled.Inc()
		s.retireLocked(sw)
	}
	status := s.statusLocked(sw)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}
