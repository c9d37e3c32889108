package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tagprefetch/internal/branch"
	"tagprefetch/internal/cpu"
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

// TestEverySweepPlans runs every row of the experiment table through the
// daemon's one-pass answer over an empty store: each plans a grid of
// unique content addresses, and the same jobs in the same order as plan
// mode (Runner.SetPlan, deduped on JobName). Table 1 alone plans none; a
// profile row plans one miss-stream job per bench. Nothing is simulated:
// every point misses and no manifest is written. Over a store
// holding a distinct synthetic result for every point, each row's body
// is the bytes a resumed runner prints over the same store, which answers
// every submission through Runner.resolve rather than the gather pass, so
// every submitted job, repeats included, was handed its own point's
// result.
func TestEverySweepPlans(t *testing.T) {
	dir := t.TempDir()
	store, err := experiment.NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range experiment.Rows {
		// swim twice: a request may name a bench twice, so every row also
		// submits repeated points.
		req := Request{Sweep: sw.Name, Benches: []string{"swim", "mcf", "swim"}, Instructions: 20_000, Warmup: 20_000}
		if err := normalize(&req, ""); err != nil {
			t.Errorf("%s: normalize: %v", sw.Name, err)
			continue
		}
		g, body, err := answer(store.LookupJob, req, math.MaxInt)
		if err != nil {
			t.Errorf("%s: answer: %v", sw.Name, err)
			continue
		}
		if sw.Name == "table1" {
			if len(g.Jobs) != 0 || !bytes.Equal(body, []byte(experiment.Table1().String())) {
				t.Errorf("table1: answer = %d jobs, body %q; want none and the table", len(g.Jobs), body)
			}
			continue
		}
		if sw.Name == "fig2" {
			var want []string
			for _, b := range []string{"swim", "mcf"} {
				want = append(want, experiment.JobName(experiment.MissStreamJob(b,
					sim.Config{Instructions: 20_000, Warmup: 20_000, Seed: 1})))
			}
			if !slices.Equal(g.Names, want) {
				t.Errorf("fig2: answer planned %v, want the miss-stream jobs %v", g.Names, want)
			}
		}
		if len(g.Jobs) == 0 || len(g.Jobs) != len(g.Names) || len(g.Missing) != len(g.Jobs) {
			t.Errorf("%s: answer = %d jobs, %d names, %d missed; want a non-empty grid, every point missed",
				sw.Name, len(g.Jobs), len(g.Names), len(g.Missing))
			continue
		}
		var names []string
		var jobs []experiment.Job
		seen := map[string]bool{}
		r := experiment.NewRunner(1)
		r.SetPlan(func(j experiment.Job) {
			if n := experiment.JobName(j); !seen[n] {
				seen[n] = true
				names = append(names, n)
				jobs = append(jobs, j)
			}
		})
		sw.Run(options(req, r))
		if !slices.Equal(g.Names, names) {
			t.Errorf("%s: answer planned %d names, plan mode %d, or in another order", sw.Name, len(g.Names), len(names))
			continue
		}
		for i, j := range jobs {
			p := g.Jobs[i]
			if p.Bench != j.Bench || p.Factory.Name != j.Factory.Name || p.Baseline != j.Baseline || p.Config != j.Config {
				t.Errorf("%s: job %d = %s/%s, plan mode %s/%s", sw.Name, i, p.Bench, p.Factory.Name, j.Bench, j.Factory.Name)
			}
		}

		fullDir := t.TempDir()
		full, err := experiment.NewResultStore(fullDir, true)
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range g.Jobs {
			full.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config,
				sim.Result{CPU: cpu.Result{IPC: 1 + float64(i)/64, Cycles: int64(1000 + i)}})
		}
		cached, body, err := answer(full.LookupJob, req, math.MaxInt)
		if err != nil || len(cached.Missing) != 0 || body == nil {
			t.Errorf("%s: answer over a full store = %v, want every point hit and a body", sw.Name, err)
			continue
		}
		if want := resumed(t, fullDir, req); !bytes.Equal(body, want) {
			t.Errorf("%s: cached body differs from a resumed run:\nanswer:  %q\nresumed: %q", sw.Name, body, want)
		}
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Errorf("planning left %d files in the store (%v)", len(left), err)
	}
}

// trailingBodies are POST bodies whose request object is followed by more
// than whitespace; FuzzSweepRequest seeds them too.
var trailingBodies = []string{
	`{"sweep":"size"} garbage`,
	`{"sweep":"size"}{"sweep":"k"}`,
	`{"sweep":"size"}]`,
}

// TestDecodeRejectsTrailingData: anything but whitespace after the request
// object is a RequestError on "body"; trailing whitespace is not.
func TestDecodeRejectsTrailingData(t *testing.T) {
	for _, body := range trailingBodies {
		_, err := decodeRequest(strings.NewReader(body))
		var re *RequestError
		if !errors.As(err, &re) || re.Field != "body" {
			t.Errorf("decode %q = %v, want a RequestError on body", body, err)
		}
	}
	if req, err := decodeRequest(strings.NewReader("{\"sweep\":\"size\"} \n\t")); err != nil || req.Sweep != "size" {
		t.Errorf("decode with trailing whitespace = %+v, %v", req, err)
	}
}

// syntheticStub returns an exec stub that publishes a manifest of the
// given IPC for every job, so a rendered body reads a real number.
func syntheticStub(s *Server, ipc float64) func(experiment.Job) error {
	return func(j experiment.Job) error {
		s.store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config, sim.Result{CPU: cpu.Result{IPC: ipc}})
		return nil
	}
}

// resumed is what `tcpfigs -resume` prints for req over the manifests
// in dir: a serial runner on a fresh store in resume mode, which answers
// each submission through Runner.resolve. It fails the test if any point
// had to be simulated.
func resumed(t *testing.T, dir string, req Request) []byte {
	t.Helper()
	store, err := experiment.NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	def, err := experiment.Lookup(req.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	r := experiment.NewRunner(1)
	r.SetResultStore(store)
	var buf bytes.Buffer
	def.Run(options(req, r)).Print(&buf)
	if simulated, _ := r.MemoStats(); simulated != 0 {
		t.Fatalf("resumed run simulated %d points, want every point from a manifest", simulated)
	}
	return buf.Bytes()
}

// TestCachedAnswerFollowsManifests: a request answered at admission
// renders the manifests as they are at that request. Alice's sweep runs
// and bob's identical request is answered at admission. Then one manifest
// is published again with another IPC: carol's body must differ from
// bob's and equal a fresh resumed run. Deleting a manifest instead
// leaves dave's request not done at admission, with every other point
// cached and the missing one re-run.
func TestCachedAnswerFollowsManifests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, nil)
	s.exec = syntheticStub(s, 1)
	req := Request{Sweep: "nbits", Benches: []string{"swim"}, Tenant: "alice"}
	result := func(id string) []byte {
		t.Helper()
		code, body, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/"+id+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("GET result of %s = %d: %s", id, code, body)
		}
		return body
	}
	cachedPost := func(tenant string) Status {
		t.Helper()
		req.Tenant = tenant
		code, st, data := postSweep(t, ts, req)
		if code != http.StatusAccepted || st.State != StateDone || st.Jobs.CachedAtSubmit != st.Jobs.Total {
			t.Fatalf("%s's POST = %d %s: want 202, done at admission, all cached", tenant, code, data)
		}
		return st
	}

	_, st, _ := postSweep(t, ts, req)
	waitState(t, ts, st.ID, StateDone)
	first := result(cachedPost("bob").ID)

	s.mu.Lock()
	j, name := s.sweeps[st.ID].jobs[0], s.sweeps[st.ID].jobNames[0]
	s.mu.Unlock()
	s.store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config, sim.Result{CPU: cpu.Result{IPC: 2}})
	second := result(cachedPost("carol").ID)
	if bytes.Equal(second, first) {
		t.Errorf("body after a manifest changed equals the body before it: a stale answer was served\n%s", second)
	}
	normalized := req
	if err := normalize(&normalized, ""); err != nil {
		t.Fatal(err)
	}
	if want := resumed(t, s.cacheDir, normalized); !bytes.Equal(second, want) {
		t.Errorf("body after a manifest changed differs from a resumed run:\ndaemon:  %q\nresumed: %q", second, want)
	}

	if err := os.Remove(filepath.Join(s.cacheDir, name)); err != nil {
		t.Fatal(err)
	}
	req.Tenant = "dave"
	code, std, data := postSweep(t, ts, req)
	if code != http.StatusAccepted || std.State == StateDone || std.Jobs.CachedAtSubmit != std.Jobs.Total-1 {
		t.Fatalf("POST after a manifest was deleted = %d %s: want 202, not done, %d cached", code, data, std.Jobs.Total-1)
	}
	if done := waitState(t, ts, std.ID, StateDone); done.Jobs.Executed != 1 {
		t.Errorf("dave's sweep executed %d jobs, want 1", done.Jobs.Executed)
	}
}

// TestOverBudgetReadsNoManifest: a grid over its job budget is rejected
// before any point is looked up, even when every point is cached, and
// nothing is rendered; the same grid within budget looks each point up
// once and renders its body. Through the handler the over-budget request
// is a 400 on max_jobs that records no sweep.
func TestOverBudgetReadsNoManifest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, nil)
	req := Request{Sweep: "nbits", Benches: []string{"swim"}}
	if err := normalize(&req, ""); err != nil {
		t.Fatal(err)
	}
	g, _, err := s.answerFor(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range g.Jobs {
		s.store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config, sim.Result{CPU: cpu.Result{IPC: 1}})
	}
	lookups := 0
	counted := func(j experiment.Job) (sim.Result, bool) {
		lookups++
		return s.store.LookupJob(j)
	}
	total := len(g.Jobs)
	over, body, err := answer(counted, req, total-1)
	var re *RequestError
	if !errors.As(err, &re) || re.Field != "max_jobs" || over != nil || body != nil {
		t.Fatalf("answer over budget = %v, %v: want a RequestError on max_jobs", over, err)
	}
	if lookups != 0 {
		t.Errorf("answer over budget looked %d points up, want 0", lookups)
	}
	within, body, err := answer(counted, req, total)
	if err != nil || body == nil || len(within.Missing) != 0 {
		t.Fatalf("answer within budget = %v: want every point hit and a body", err)
	}
	if lookups != total {
		t.Errorf("answer within budget looked %d points up, want %d", lookups, total)
	}

	req.MaxJobs = total - 1
	code, _, data := postSweep(t, ts, req)
	var eb struct {
		Field string `json:"field"`
	}
	if code != http.StatusBadRequest || json.Unmarshal(data, &eb) != nil || eb.Field != "max_jobs" {
		t.Fatalf("over-budget POST on a full store = %d %s: want 400 on max_jobs", code, data)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sweeps) != 0 {
		t.Errorf("over-budget POST recorded %d sweeps, want 0", len(s.sweeps))
	}
}

// TestPassRepeatsAndBatches: a sweep that submits its grid in two
// batches, with a point repeated inside a batch and across them, is handed
// each point's own result at every submission and looks each point up
// once. A budget that its second batch passes stops the lookups before
// that batch. Every row of experiment.Rows submits its grid in one
// batch, so the row here is the test's own.
func TestPassRepeatsAndBatches(t *testing.T) {
	cfg := sim.Config{Instructions: 10_000, Warmup: 10_000, Seed: 1}
	a := experiment.Job{Bench: "swim", Factory: sim.TCP8K(), Config: cfg}
	b := experiment.Job{Bench: "mcf", Factory: sim.TCP8K(), Config: cfg}
	base := experiment.Job{Bench: "swim", Factory: sim.NoPrefetch(), Config: cfg, Baseline: true}
	ipc := map[string]float64{experiment.JobName(a): 1, experiment.JobName(b): 2, experiment.JobName(base): 3}
	var got []float64
	experiment.Rows = append(experiment.Rows, experiment.Row{Name: "repeats", Run: func(o experiment.Options) experiment.Result {
		for _, batch := range [][]experiment.Job{{a, b, a}, {b, base, a}} {
			for _, res := range o.Runner.Map(batch) {
				got = append(got, res.IPC())
			}
		}
		return experiment.Result{}
	}})
	t.Cleanup(func() { experiment.Rows = experiment.Rows[:len(experiment.Rows)-1] })

	lookups := 0
	lookup := func(j experiment.Job) (sim.Result, bool) {
		lookups++
		return sim.Result{CPU: cpu.Result{IPC: ipc[experiment.JobName(j)]}}, true
	}
	req := Request{Sweep: "repeats", Instructions: cfg.Instructions, Warmup: cfg.Warmup, Seed: 1, WarmupFidelity: "full"}
	g, _, err := answer(lookup, req, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 1, 2, 3, 1}; !slices.Equal(got, want) {
		t.Errorf("submissions were handed IPCs %v, want %v", got, want)
	}
	if lookups != 3 || len(g.Jobs) != 3 || len(g.Missing) != 0 {
		t.Errorf("answer looked %d points up, planned %d jobs, missed %d; want 3, 3, 0",
			lookups, len(g.Jobs), len(g.Missing))
	}

	got, lookups = nil, 0
	_, _, err = answer(lookup, req, 2)
	var re *RequestError
	if !errors.As(err, &re) || re.Field != "max_jobs" {
		t.Fatalf("answer over budget = %v, want a RequestError on max_jobs", err)
	}
	if lookups != 2 {
		t.Errorf("answer over budget looked %d points up, want the first batch's 2", lookups)
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
	store, err := experiment.NewResultStore(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := answer(store.LookupJob, planned, math.MaxInt)
	if err != nil {
		t.Fatalf("answer: %v", err)
	}
	names := g.Names
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

// TestOmittedWarmupIsDefault: an omitted warmup and "warmup": 0 both mean
// the default, as in experiment.Options, so the two bodies normalize to
// the same request and the same sweep.
func TestOmittedWarmupIsDefault(t *testing.T) {
	var reqs [2]Request
	for i, body := range []string{`{"sweep":"size"}`, `{"sweep":"size","warmup":0}`} {
		req, err := decodeRequest(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if err := normalize(&req, ""); err != nil {
			t.Fatal(err)
		}
		if req.Warmup != sim.DefaultWarmup {
			t.Errorf("%s: warmup %d, want the default %d", body, req.Warmup, sim.DefaultWarmup)
		}
		reqs[i] = req
	}
	if !reflect.DeepEqual(reqs[0], reqs[1]) {
		t.Errorf("normalized requests differ:\n%+v\n%+v", reqs[0], reqs[1])
	}
	if a, b := sweepID("t", reqs[0]), sweepID("t", reqs[1]); a != b {
		t.Errorf("sweep ids differ: %s vs %s", a, b)
	}
}

// TestFinishedSweepsAreBounded: after 2×maxFinishedSweeps cached requests
// under fresh tenants the daemon holds at most maxFinishedSweeps records.
// The newest still serves the grid's result; the oldest is forgotten and
// answers 404 like an unknown id.
func TestFinishedSweepsAreBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, nil)
	req := Request{Sweep: "nbits", Benches: []string{"swim"}, Instructions: 10_000,
		Warmup: 10_000, Tenant: "tenant-0"}
	_, first, _ := postSweep(t, ts, req)
	waitState(t, ts, first.ID, StateDone)
	h := s.Handler()
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return w
	}
	want := serve(http.MethodGet, "/v1/sweeps/"+first.ID+"/result", nil)
	if want.Code != http.StatusOK {
		t.Fatalf("first result = %d %s", want.Code, want.Body.Bytes())
	}
	var newest string
	for i := 1; i < 2*maxFinishedSweeps; i++ {
		req.Tenant = fmt.Sprintf("tenant-%d", i)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := serve(http.MethodPost, "/v1/sweeps", body)
		var st Status
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted || st.State != StateDone {
			t.Fatalf("POST %d = %d %s: want 202, done at admission", i, w.Code, w.Body.Bytes())
		}
		newest = st.ID
	}
	s.mu.Lock()
	held := len(s.sweeps)
	s.mu.Unlock()
	if held > maxFinishedSweeps {
		t.Errorf("%d sweeps held after %d finished, want at most %d", held, 2*maxFinishedSweeps, maxFinishedSweeps)
	}
	if w := serve(http.MethodGet, "/v1/sweeps/"+newest+"/result", nil); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("newest result = %d, %d bytes; want 200 and the first sweep's %d bytes", w.Code, w.Body.Len(), want.Body.Len())
	}
	for _, path := range []string{"/v1/sweeps/" + first.ID, "/v1/sweeps/" + first.ID + "/result"} {
		if w := serve(http.MethodGet, path, nil); w.Code != http.StatusNotFound {
			t.Errorf("GET %s of the oldest sweep = %d, want 404", path, w.Code)
		}
	}
}

// TestTenantsAreBounded: 2 x maxTenants cached requests under fresh
// tenants leave at most maxTenants tenants' accounting, and as many
// tenant sets on /metrics, while a tenant whose sweep is still running
// keeps its record.
func TestTenantsAreBounded(t *testing.T) {
	gate := make(chan struct{})
	var s *Server
	var ts *httptest.Server
	s, ts = newTestServer(t, Config{Workers: 1}, nil)
	s.exec = func(j experiment.Job) error {
		if j.Bench == "mcf" {
			<-gate
		}
		return manifestStub(s)(j)
	}
	t.Cleanup(func() { close(gate) })

	req := Request{Sweep: "nbits", Benches: []string{"swim"}, Instructions: 10_000,
		Warmup: 10_000, Tenant: "tenant-0"}
	_, first, _ := postSweep(t, ts, req)
	waitState(t, ts, first.ID, StateDone)
	busy := req
	busy.Benches, busy.Tenant = []string{"mcf"}, "busy"
	if code, _, body := postSweep(t, ts, busy); code != http.StatusAccepted {
		t.Fatalf("busy POST = %d %s", code, body)
	}
	h := s.Handler()
	for i := 1; i < 2*maxTenants; i++ {
		req.Tenant = fmt.Sprintf("tenant-%d", i)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted {
			t.Fatalf("POST %d = %d %s", i, w.Code, w.Body.Bytes())
		}
	}
	s.mu.Lock()
	held, busyRec := len(s.tenants), s.tenants["busy"]
	s.mu.Unlock()
	if held > maxTenants {
		t.Errorf("%d tenants held after %d, want at most %d", held, 2*maxTenants+1, maxTenants)
	}
	if busyRec == nil || busyRec.requests != 1 {
		t.Errorf("busy tenant's record = %+v, want kept with its 1 request", busyRec)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sets := 0
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if strings.HasPrefix(line, "tcp_sweepd_tenant_requests{") {
			sets++
		}
	}
	if sets == 0 || sets > maxTenants {
		t.Errorf("/metrics renders %d tenant sets, want 1 to %d", sets, maxTenants)
	}
	if !strings.Contains(w.Body.String(), `tcp_sweepd_tenant_requests{tenant="busy"} 1`) {
		t.Error("/metrics lost the busy tenant")
	}
}

// BenchmarkCachedRequest times one cached request as a client makes it: a
// POST under a fresh tenant, then the result GET, through the handler.
// The grid is perfbench sweepd's 28-point size sweep over mcf and swim,
// on a store pre-filled with synthetic results for every planned job.
func BenchmarkCachedRequest(b *testing.B) {
	s, err := New(Config{Root: b.TempDir(), Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	req := Request{Sweep: "size", Benches: []string{"mcf", "swim"}, Instructions: 100_000,
		Warmup: 200_000, WarmupFidelity: "fast", WarmFork: true}
	planned := req
	if err := normalize(&planned, ""); err != nil {
		b.Fatal(err)
	}
	g, _, err := s.answerFor(planned)
	if err != nil {
		b.Fatal(err)
	}
	for i, j := range g.Jobs {
		s.store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config,
			sim.Result{CPU: cpu.Result{IPC: 1 + float64(i)/64}})
	}
	h := s.Handler()
	request := func(i int) {
		req.Tenant = fmt.Sprintf("client-%d", i)
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
		var st Status
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || w.Code != http.StatusAccepted || st.State != StateDone {
			b.Fatalf("POST = %d %s: want 202, done at admission", w.Code, w.Body.Bytes())
		}
		w = httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+st.ID+"/result", nil))
		if w.Code != http.StatusOK || w.Body.Len() == 0 {
			b.Fatalf("GET result = %d %s", w.Code, w.Body.Bytes())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
}
