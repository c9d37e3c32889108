package fleetobs

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"

	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/telemetry"
)

// Server exposes a checkpoint directory's fleet status over HTTP:
//
//	/status  — a fresh FleetSnapshot as indented JSON
//	/metrics — Prometheus text exposition of the fleet.* gauges/counters
//	           plus any extra registries attached with AddMetrics
//
// The server is read-only, advisory and pull-only: it never writes to the
// directory, each request scans it once, and nothing is scanned or
// allocated between requests.
type Server struct {
	dir   string
	clock distrib.Clock

	reg     *telemetry.Registry
	scans   *telemetry.Counter
	scrapes *telemetry.Counter

	jobsTotal, jobsDone, jobsRunning  *telemetry.Gauge
	jobsClaimed, jobsStale            *telemetry.Gauge
	jobsStolen, jobsPending           *telemetry.Gauge
	workersFresh, completion, etaSecs *telemetry.Gauge

	mu    sync.Mutex
	extra []func() []telemetry.PromSet
	srv   *http.Server
}

// NewServer creates a status server over dir. A nil clock selects
// distrib.System.
func NewServer(dir string, clock distrib.Clock) *Server {
	if clock == nil {
		clock = distrib.System
	}
	reg := telemetry.NewRegistry()
	s := &Server{dir: dir, clock: clock, reg: reg}
	s.scans = reg.Counter("fleet.scans", "checkpoint-directory scans performed")
	s.scrapes = reg.Counter("fleet.scrapes", "/metrics scrapes served")
	s.jobsTotal = reg.Gauge("fleet.jobs.total", "jobs discovered in the checkpoint directory")
	s.jobsDone = reg.Gauge("fleet.jobs.done", "jobs with a published result manifest")
	s.jobsRunning = reg.Gauge("fleet.jobs.running", "jobs under a fresh renewed lease")
	s.jobsClaimed = reg.Gauge("fleet.jobs.claimed", "jobs under a fresh never-renewed lease")
	s.jobsStale = reg.Gauge("fleet.jobs.stale", "jobs whose lease heartbeat expired")
	s.jobsStolen = reg.Gauge("fleet.jobs.stolen", "jobs between a steal and the stealer's re-claim")
	s.jobsPending = reg.Gauge("fleet.jobs.pending", "discovered jobs with no lease or manifest")
	s.workersFresh = reg.Gauge("fleet.workers.fresh", "workers holding at least one live lease")
	s.completion = reg.Gauge("fleet.completion_pct", "percentage of discovered jobs done")
	s.etaSecs = reg.Gauge("fleet.eta_seconds", "estimated seconds to finish remaining discovered jobs")
	s.srv = &http.Server{Handler: s.Handler()}
	return s
}

// scan observes the directory once, updating the fleet gauges.
func (s *Server) scan() (*FleetSnapshot, error) {
	snap, err := Scan(s.dir, s.clock)
	if err != nil {
		return nil, err
	}
	s.scans.Inc()
	s.jobsTotal.Set(float64(snap.Total))
	s.jobsDone.Set(float64(snap.States.Done))
	s.jobsRunning.Set(float64(snap.States.Running))
	s.jobsClaimed.Set(float64(snap.States.Claimed))
	s.jobsStale.Set(float64(snap.States.Stale))
	s.jobsStolen.Set(float64(snap.States.Stolen))
	s.jobsPending.Set(float64(snap.States.Pending))
	freshWorkers := 0
	for _, w := range snap.Workers {
		if w.Fresh {
			freshWorkers++
		}
	}
	s.workersFresh.Set(float64(freshWorkers))
	s.completion.Set(snap.CompletionPct)
	s.etaSecs.Set(float64(snap.ETANS) / 1e9)
	return snap, nil
}

// AddMetrics registers an extra per-scrape metric collector whose sets are
// rendered alongside the fleet.* family on /metrics (e.g. a worker's live
// simulation registry). Collectors run only when a scrape arrives.
func (s *Server) AddMetrics(collect func() []telemetry.PromSet) {
	s.mu.Lock()
	s.extra = append(s.extra, collect)
	s.mu.Unlock()
}

// Handler returns the route mux (also reachable via Serve).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handleStatus)
	mux.Handle("/metrics", telemetry.PromHandler(s.collect))
	return mux
}

func (s *Server) collect() []telemetry.PromSet {
	s.scrapes.Inc()
	s.scan() //nolint:errcheck // a failed scan serves the previous gauge values
	sets := []telemetry.PromSet{telemetry.PromFromRegistry(s.reg)}
	s.mu.Lock()
	extra := append([]func() []telemetry.PromSet(nil), s.extra...)
	s.mu.Unlock()
	for _, fn := range extra {
		sets = append(sets, fn()...)
	}
	return sets
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	snap, err := s.scan()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // client gone mid-response is not actionable
}

// Serve runs the HTTP server on l; it blocks until Close (returning nil)
// or a listener failure.
func (s *Server) Serve(l net.Listener) error {
	err := s.srv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Close shuts the HTTP server down. Safe to call more than once.
func (s *Server) Close() {
	s.srv.Close() //nolint:errcheck // shutdown errors are not actionable
}
