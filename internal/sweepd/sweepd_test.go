package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tagprefetch/internal/branch"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sim"
)

// manifestStub returns an exec stub that publishes a real (zero-valued)
// manifest for the job, so sweeps complete through the genuine cache path
// without simulating anything.
func manifestStub(s *Server) func(experiment.Job) error {
	return func(j experiment.Job) error {
		s.store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config, sim.Result{})
		return nil
	}
}

func newTestServer(t *testing.T, cfg Config, exec func(experiment.Job) error) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exec != nil {
		s.exec = exec
	} else {
		s.exec = manifestStub(s)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func postSweep(t *testing.T, ts *httptest.Server, req Request) (int, Status, []byte) {
	t.Helper()
	code, data, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", req)
	var st Status
	if code == http.StatusAccepted || code == http.StatusOK {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("POST response did not decode as Status: %v\n%s", err, data)
		}
	}
	return code, st, data
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, data, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("GET status = %d: %s", code, data)
		}
		var st Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("sweep failed: %s", st.Failure)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached state %s", id, want)
	return Status{}
}

// TestSweepLifecycle drives the whole POST → poll → result → re-POST
// contract through the stub exec: completion, lazy rendering, same-tenant
// dedup (200, same id) and cross-tenant cache hits (done at admission,
// zero pending).
func TestSweepLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2}, nil)
	req := Request{Sweep: "nbits", Benches: []string{"swim"}, Tenant: "alice"}

	code, st, _ := postSweep(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	if st.Jobs.Total == 0 || st.Jobs.Pending != st.Jobs.Total {
		t.Fatalf("fresh sweep jobs = %+v, want all pending", st.Jobs)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Jobs.Executed != done.Jobs.Total {
		t.Errorf("done sweep executed %d of %d", done.Jobs.Executed, done.Jobs.Total)
	}
	if done.States == nil || done.States.Done != done.Jobs.Total {
		t.Errorf("rollup = %+v, want %d done", done.States, done.Jobs.Total)
	}

	rcode, rbody, rhdr := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/result", nil)
	if rcode != http.StatusOK {
		t.Fatalf("GET result = %d: %s", rcode, rbody)
	}
	if ct := rhdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("result content-type = %q", ct)
	}
	if len(rbody) == 0 {
		t.Error("result body empty")
	}

	// Same tenant, identical grid: dedup to the same sweep, no new jobs.
	code2, st2, _ := postSweep(t, ts, req)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Errorf("identical re-POST = %d id %s, want 200 id %s", code2, st2.ID, st.ID)
	}

	// Different tenant, identical grid: a new sweep answered entirely
	// from the cache — done at admission, nothing queued or executed.
	req.Tenant = "bob"
	code3, st3, _ := postSweep(t, ts, req)
	if code3 != http.StatusAccepted {
		t.Fatalf("cross-tenant POST = %d, want 202", code3)
	}
	if st3.ID == st.ID {
		t.Error("cross-tenant sweep shares the tenant-scoped id")
	}
	if st3.State != StateDone || st3.Jobs.CachedAtSubmit != st3.Jobs.Total || st3.Jobs.Executed != 0 {
		t.Errorf("cross-tenant sweep = state %s jobs %+v, want done, all cached", st3.State, st3.Jobs)
	}
	rcode3, rbody3, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+st3.ID+"/result", nil)
	if rcode3 != http.StatusOK || !bytes.Equal(rbody3, rbody) {
		t.Errorf("cross-tenant result differs (code %d, %d vs %d bytes)", rcode3, len(rbody3), len(rbody))
	}
}

// TestSweepLifecycleStatusRollup polls a sweep's status from a second
// goroutine for the whole run: every response that says done must carry a
// rollup with every job done, never one scanned before the last manifest.
func TestSweepLifecycleStatusRollup(t *testing.T) {
	var s *Server
	exec := func(j experiment.Job) error {
		time.Sleep(2 * time.Millisecond) // spread the sweep over many polls
		return manifestStub(s)(j)
	}
	var ts *httptest.Server
	s, ts = newTestServer(t, Config{Workers: 2}, exec)
	code, st, _ := postSweep(t, ts, Request{Sweep: "nbits", Benches: []string{"swim"}, Tenant: "alice"})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}

	stop := make(chan struct{})
	bad := make(chan string, 1)
	var polls, dones int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
			if err != nil {
				bad <- err.Error()
				return
			}
			var cur Status
			err = json.NewDecoder(resp.Body).Decode(&cur)
			resp.Body.Close()
			if err != nil {
				bad <- err.Error()
				return
			}
			polls++
			if cur.State != StateDone {
				continue
			}
			dones++
			if cur.States == nil || cur.States.Done != cur.Jobs.Total {
				bad <- fmt.Sprintf("done status with rollup %+v, want %d done", cur.States, cur.Jobs.Total)
				return
			}
		}
	}()
	waitState(t, ts, st.ID, StateDone)
	time.Sleep(20 * time.Millisecond) // let the poller see done too
	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
	if polls < 2 || dones == 0 {
		t.Errorf("poller saw %d statuses, %d of them done; want the sweep polled throughout", polls, dones)
	}
}

// TestTwoTenantFairness is the acceptance criterion at the HTTP layer:
// one serial worker, tenant alice floods first, tenant bob arrives while
// alice's first job is in flight — and from then on every scheduling
// round serves both tenants until one drains.
func TestTwoTenantFairness(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var order []string

	var s *Server
	exec := func(j experiment.Job) error {
		<-gate
		mu.Lock()
		switch j.Bench {
		case "swim":
			order = append(order, "alice")
		case "mcf":
			order = append(order, "bob")
		default:
			order = append(order, "?"+j.Bench)
		}
		mu.Unlock()
		return manifestStub(s)(j)
	}
	var ts *httptest.Server
	s, ts = newTestServer(t, Config{Workers: 1}, nil)
	s.exec = exec // rebind: stub needs the server for manifest writes

	codeA, stA, _ := postSweep(t, ts, Request{Sweep: "nbits", Benches: []string{"swim"}, Tenant: "alice"})
	if codeA != http.StatusAccepted {
		t.Fatalf("alice POST = %d", codeA)
	}
	codeB, stB, _ := postSweep(t, ts, Request{Sweep: "nbits", Benches: []string{"mcf"}, Tenant: "bob"})
	if codeB != http.StatusAccepted {
		t.Fatalf("bob POST = %d", codeB)
	}
	close(gate)
	a := waitState(t, ts, stA.ID, StateDone)
	b := waitState(t, ts, stB.ID, StateDone)

	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	if len(got) != a.Jobs.Total+b.Jobs.Total {
		t.Fatalf("executed %d jobs, want %d", len(got), a.Jobs.Total+b.Jobs.Total)
	}
	// Walk the execution order tracking each tenant's remaining backlog:
	// whenever both tenants still have work, consecutive pops must serve
	// different tenants (round-robin = strict alternation).
	rem := map[string]int{"alice": a.Jobs.Total, "bob": b.Jobs.Total}
	for i, tn := range got {
		if i > 0 && rem["alice"] > 0 && rem["bob"] > 0 && got[i-1] == tn {
			t.Fatalf("pops %d and %d both served %s while both tenants had work (order %v)",
				i-1, i, tn, got[:i+1])
		}
		rem[tn]--
	}
}

// TestBackpressure: a request whose cache misses overflow the bounded
// queue is refused with 429 and a Retry-After hint, before any job is
// queued or executed.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	blocked := func(experiment.Job) error { <-gate; return nil }
	_, ts := newTestServer(t, Config{Workers: 1, MaxQueuedJobs: 1}, blocked)

	code, _, data := postSweep(t, ts, Request{Sweep: "nbits", Benches: []string{"swim"}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("POST over tiny queue = %d, want 429: %s", code, data)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Errorf("429 body = %s", data)
	}
	_, _, hdr := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", Request{Sweep: "nbits", Benches: []string{"swim"}})
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
}

// TestJobBudget: max_jobs below the plan size is a typed 400 naming the
// field.
func TestJobBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	code, _, data := postSweep(t, ts, Request{Sweep: "nbits", Benches: []string{"swim"}, MaxJobs: 1})
	if code != http.StatusBadRequest {
		t.Fatalf("over-budget POST = %d, want 400: %s", code, data)
	}
	var eb struct {
		Field string `json:"field"`
	}
	if err := json.Unmarshal(data, &eb); err != nil || eb.Field != "max_jobs" {
		t.Errorf("400 body = %s, want field max_jobs", data)
	}
}

// TestInvalidRequests: every malformed request is a 400 naming the field.
// A window sim.Config.Validate rejects is refused at admission, on the
// request field the config field came from.
func TestInvalidRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	cases := []struct {
		name  string
		req   Request
		field string
	}{
		{"unknown sweep", Request{Sweep: "nope"}, "sweep"},
		{"unknown bench", Request{Sweep: "nbits", Benches: []string{"doom"}}, "benches"},
		{"bad fidelity", Request{Sweep: "nbits", WarmupFidelity: "psychic"}, "warmup_fidelity"},
		{"negative budget", Request{Sweep: "nbits", MaxJobs: -1}, "max_jobs"},
		{"window overflows", Request{Sweep: "nbits", Benches: []string{"swim"},
			Instructions: 1, Warmup: math.MaxUint64}, "warmup"},
	}
	for _, tc := range cases {
		code, _, data := postSweep(t, ts, tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400 (%s)", tc.name, code, data)
			continue
		}
		var eb struct {
			Field string `json:"field"`
		}
		if err := json.Unmarshal(data, &eb); err != nil || eb.Field != tc.field {
			t.Errorf("%s: body = %s, want field %s", tc.name, data, tc.field)
		}
	}
	// Unknown JSON fields are rejected too (typo protection).
	code, data, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps",
		map[string]any{"sweep": "nbits", "benchs": []string{"swim"}})
	if code != http.StatusBadRequest {
		t.Errorf("unknown field POST = %d, want 400: %s", code, data)
	}
}

// TestEverySweepPlans runs every row of the sweep table through the
// daemon's planner: each plans a non-empty grid of unique content
// addresses.
func TestEverySweepPlans(t *testing.T) {
	for _, sw := range experiment.Sweeps {
		req := Request{Sweep: sw.Name, Benches: []string{"swim", "mcf"}}
		if err := normalize(&req, ""); err != nil {
			t.Errorf("%s: normalize: %v", sw.Name, err)
			continue
		}
		jobs, names, err := planJobs(req)
		if err != nil || len(jobs) == 0 || len(jobs) != len(names) {
			t.Errorf("%s: planJobs = %d jobs, %d names, %v", sw.Name, len(jobs), len(names), err)
		}
	}
}

// TestBranchpredServedFromCache: the branch-predictor ablation plans one
// addressable job per (predictor, bench) — its predictor is a name in the
// config, so every point has a manifest address — and a second tenant's
// identical request is answered entirely from the cache.
func TestBranchpredServedFromCache(t *testing.T) {
	req := Request{Sweep: "branchpred", Benches: []string{"swim"}, Tenant: "alice"}
	planned := req
	if err := normalize(&planned, ""); err != nil {
		t.Fatal(err)
	}
	_, names, err := planJobs(planned)
	if err != nil {
		t.Fatalf("planJobs: %v", err)
	}
	if len(names) != len(branch.Predictors) {
		t.Errorf("planned %d jobs, want one per predictor (%d)", len(names), len(branch.Predictors))
	}
	for _, n := range names {
		if !regexp.MustCompile(`^job-[0-9a-f]{16}\.json$`).MatchString(n) {
			t.Errorf("planned name %q is not a manifest address", n)
		}
	}

	_, ts := newTestServer(t, Config{Workers: 2}, nil)
	code, st, _ := postSweep(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Jobs.Executed != done.Jobs.Total || done.Jobs.Total != len(names) {
		t.Errorf("first sweep jobs = %+v, want all %d executed", done.Jobs, len(names))
	}
	rcode, rbody, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/result", nil)
	if rcode != http.StatusOK || len(rbody) == 0 {
		t.Fatalf("GET result = %d: %s", rcode, rbody)
	}

	req.Tenant = "bob"
	code2, st2, _ := postSweep(t, ts, req)
	if code2 != http.StatusAccepted {
		t.Fatalf("cross-tenant POST = %d, want 202", code2)
	}
	if st2.State != StateDone || st2.Jobs.CachedAtSubmit != st2.Jobs.Total || st2.Jobs.Executed != 0 {
		t.Errorf("cross-tenant sweep = state %s jobs %+v, want done, all cached", st2.State, st2.Jobs)
	}
	rcode2, rbody2, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+st2.ID+"/result", nil)
	if rcode2 != http.StatusOK || !bytes.Equal(rbody2, rbody) {
		t.Errorf("cross-tenant result differs (code %d, %d vs %d bytes)", rcode2, len(rbody2), len(rbody))
	}
}

// TestCancel: DELETE releases queued jobs (relieving backpressure), the
// sweep reports cancelled, its result conflicts, and a later identical
// POST starts fresh instead of deduping onto the corpse.
func TestCancel(t *testing.T) {
	gate := make(chan struct{})
	var s *Server
	exec := func(j experiment.Job) error {
		<-gate
		return manifestStub(s)(j)
	}
	var ts *httptest.Server
	s, ts = newTestServer(t, Config{Workers: 1}, nil)
	s.exec = exec
	t.Cleanup(func() { close(gate) })

	req := Request{Sweep: "nbits", Benches: []string{"swim"}, Tenant: "alice"}
	code, st, _ := postSweep(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	dcode, ddata, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	if dcode != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", dcode, ddata)
	}
	var dst Status
	if err := json.Unmarshal(ddata, &dst); err != nil || dst.State != StateCancelled {
		t.Fatalf("DELETE body = %s, want cancelled", ddata)
	}
	// Queued refs are gone.
	s.mu.Lock()
	queued := s.sched.queued
	s.mu.Unlock()
	if queued != 0 {
		t.Errorf("scheduler still holds %d refs after cancel", queued)
	}
	// Idempotent DELETE; result conflicts.
	if dcode2, _, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil); dcode2 != http.StatusOK {
		t.Errorf("second DELETE = %d, want 200", dcode2)
	}
	if rcode, _, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/result", nil); rcode != http.StatusConflict {
		t.Errorf("result of cancelled sweep = %d, want 409", rcode)
	}
	// Re-POST after cancel starts a fresh sweep under the same id.
	code2, st2, _ := postSweep(t, ts, req)
	if code2 != http.StatusAccepted || st2.ID != st.ID || st2.State == StateCancelled {
		t.Errorf("re-POST after cancel = %d id %s state %s, want 202 fresh %s", code2, st2.ID, st2.State, st.ID)
	}
}

// TestJobFailureFailsSweep: a job error marks the sweep failed, releases
// its queue and surfaces the failure in status and result.
func TestJobFailureFailsSweep(t *testing.T) {
	exec := func(j experiment.Job) error { return fmt.Errorf("disk on fire") }
	_, ts := newTestServer(t, Config{Workers: 1}, exec)
	code, st, _ := postSweep(t, ts, Request{Sweep: "nbits", Benches: []string{"swim"}})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	failed := waitState(t, ts, st.ID, StateFailed)
	if !strings.Contains(failed.Failure, "disk on fire") {
		t.Errorf("failure = %q", failed.Failure)
	}
	if rcode, rdata, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+st.ID+"/result", nil); rcode != http.StatusConflict {
		t.Errorf("result of failed sweep = %d: %s", rcode, rdata)
	}
}

// TestUnknownSweepRoutes: status, result and cancel of an unknown id are
// 404s.
func TestUnknownSweepRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sweeps/sw-dead"},
		{http.MethodGet, "/v1/sweeps/sw-dead/result"},
		{http.MethodDelete, "/v1/sweeps/sw-dead"},
	} {
		if code, _, _ := doJSON(t, r.method, ts.URL+r.path, nil); code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", r.method, r.path, code)
		}
	}
}

// TestTenantHeader: the X-Tenant header names the tenant when the body
// does not; the body wins when both are present.
func TestTenantHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	body, _ := json.Marshal(Request{Sweep: "nbits", Benches: []string{"swim"}})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweeps", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "carol" {
		t.Errorf("tenant = %q, want carol (from X-Tenant)", st.Tenant)
	}
}
