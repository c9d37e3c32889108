package sweepd_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/runflags"
	"tagprefetch/internal/sweepd"
)

const (
	e2eInstr  = 20_000
	e2eWarmup = 20_000
	e2eBench  = "swim"
)

func countManifests(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// newE2EDaemon starts a daemon with real simulations behind an httptest
// server.
func newE2EDaemon(t *testing.T, workers int) (*sweepd.Server, *httptest.Server) {
	t.Helper()
	srv, err := sweepd.New(sweepd.Config{Root: t.TempDir(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// e2eRequest is the small Fig. 13 index-bits grid both end-to-end tests
// submit.
func e2eRequest(tenant string) sweepd.Request {
	return sweepd.Request{
		Sweep:        "nbits",
		Benches:      []string{e2eBench},
		Instructions: e2eInstr,
		Warmup:       e2eWarmup,
		Tenant:       tenant,
	}
}

func postSweep(t *testing.T, base string, r sweepd.Request) (int, sweepd.Status) {
	t.Helper()
	body, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st sweepd.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("POST response did not decode: %v", err)
	}
	return resp.StatusCode, st
}

// awaitDone polls a sweep's status until it is done.
func awaitDone(t *testing.T, base, id string) sweepd.Status {
	t.Helper()
	deadline := time.Now().Add(4 * time.Minute)
	for {
		gcode, data := getBody(t, base+"/v1/sweeps/"+id)
		if gcode != http.StatusOK {
			t.Fatalf("GET status = %d: %s", gcode, data)
		}
		var cur sweepd.Status
		if err := json.Unmarshal(data, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == sweepd.StateDone {
			return cur
		}
		if cur.State == sweepd.StateFailed {
			t.Fatalf("sweep failed: %s", cur.Failure)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s: %s", cur.State, data)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serialBody is the exact bytes `tcpfigs -exp nbits -benches swim -n
// ...` prints for the e2eRequest grid (one Series.String() line per
// series), from a fresh serial run.
func serialBody() []byte {
	var want bytes.Buffer
	fmt.Fprintln(&want, experiment.Fig13IndexBits(experiment.Options{
		Instructions: e2eInstr, Warmup: e2eWarmup,
		Benches: []string{e2eBench},
		Runner:  experiment.NewRunner(1),
	}).String())
	return want.Bytes()
}

// TestDaemonEndToEnd drives the daemon with real simulations: POST a small
// Fig. 13 index-bits grid, poll to completion, and pin the three
// acceptance properties —
//
//  1. the result body is byte-identical to what a fresh serial
//     `tcpfigs -exp nbits` run prints for the same grid (the daemon's
//     gather path shares the CLI's job-construction and rendering code);
//  2. re-submitting the identical grid from another tenant performs zero
//     new simulations: the manifest count is unchanged and the body is
//     byte-identical;
//  3. /metrics exposes the sweepd.* families, including per-tenant series.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	srv, ts := newE2EDaemon(t, 2)
	req := e2eRequest("alice")
	code, st := postSweep(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	st = awaitDone(t, ts.URL, st.ID)
	if len(st.Workers) != 2 {
		t.Errorf("status reports %d workers, want 2", len(st.Workers))
	}

	rcode, daemonBody := getBody(t, ts.URL+"/v1/sweeps/"+st.ID+"/result")
	if rcode != http.StatusOK {
		t.Fatalf("GET result = %d: %s", rcode, daemonBody)
	}

	// Property 1: byte-identity with a fresh serial run of the same grid
	// — the exact bytes `tcpfigs -exp nbits -benches swim -n ... `
	// prints (one Series.String() line per series).
	if want := serialBody(); !bytes.Equal(daemonBody, want) {
		t.Errorf("daemon result differs from a fresh serial run:\ndaemon: %q\nserial: %q",
			daemonBody, want)
	}

	// Property 2: an identical grid from a second tenant is served
	// entirely from the cache — done at admission, zero new manifests,
	// byte-identical body.
	before := countManifests(t, srv.CacheDir())
	req.Tenant = "bob"
	code2, st2 := postSweep(t, ts.URL, req)
	if code2 != http.StatusAccepted {
		t.Fatalf("cross-tenant POST = %d", code2)
	}
	if st2.State != sweepd.StateDone {
		t.Fatalf("cross-tenant sweep = %s, want done at admission (cached %d of %d)",
			st2.State, st2.Jobs.CachedAtSubmit, st2.Jobs.Total)
	}
	if st2.Jobs.CachedAtSubmit != st2.Jobs.Total || st2.Jobs.Executed != 0 {
		t.Errorf("cross-tenant jobs = %+v, want all cached", st2.Jobs)
	}
	if after := countManifests(t, srv.CacheDir()); after != before {
		t.Errorf("re-submission grew the manifest count %d -> %d (simulated again)", before, after)
	}
	rcode2, daemonBody2 := getBody(t, ts.URL+"/v1/sweeps/"+st2.ID+"/result")
	if rcode2 != http.StatusOK || !bytes.Equal(daemonBody2, daemonBody) {
		t.Errorf("cached result differs (code %d, %d vs %d bytes)",
			rcode2, len(daemonBody2), len(daemonBody))
	}

	// Property 3: the Prometheus exposition carries the sweepd families
	// and the per-tenant series.
	mcode, metrics := getBody(t, ts.URL+"/metrics")
	if mcode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", mcode)
	}
	for _, needle := range []string{
		"tcp_sweepd_requests_total 2",
		"tcp_sweepd_sweeps_done 2",
		"tcp_sweepd_jobs_executed",
		"tcp_sweepd_jobs_cached",
		"tcp_fleet_jobs_done", // fleetobs families ride along
		`tcp_sweepd_tenant_requests{tenant="alice"} 1`,
		`tcp_sweepd_tenant_requests{tenant="bob"} 1`,
		`tcp_sweepd_tenant_jobs_executed{tenant="alice"}`,
		`tcp_sweepd_tenant_jobs_cached{tenant="bob"}`,
	} {
		if !strings.Contains(string(metrics), needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}

	// The cache directory is version-scoped.
	if base := filepath.Base(srv.CacheDir()); !strings.HasPrefix(base, "ckpt-v") {
		t.Errorf("cache dir %q is not version-scoped", srv.CacheDir())
	}
	if _, err := os.Stat(srv.CacheDir()); err != nil {
		t.Errorf("cache dir missing: %v", err)
	}
}

// TestDeletedManifestRerun pins the failure-matrix row "manifests deleted
// under a done sweep": with one manifest of a done sweep removed before
// its result was ever rendered, GET …/result answers 409, and a fresh
// tenant's re-POST finds every other point cached, re-runs exactly the
// missing one and serves the bytes a fresh serial run prints. The
// deleted manifest was looked up (and memoised) before it went, so the
// daemon's manifest memo must see the deletion.
func TestDeletedManifestRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	srv, ts := newE2EDaemon(t, 2)
	code, st := postSweep(t, ts.URL, e2eRequest("alice"))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	st = awaitDone(t, ts.URL, st.ID)
	manifests := countManifests(t, srv.CacheDir())
	if manifests != st.Jobs.Total {
		t.Fatalf("%d manifests for %d jobs", manifests, st.Jobs.Total)
	}
	// A cached re-POST looks every point up, so the daemon's manifest memo
	// holds the one about to be deleted.
	if _, st1 := postSweep(t, ts.URL, e2eRequest("bob")); st1.Jobs.CachedAtSubmit != st1.Jobs.Total {
		t.Fatalf("bob's re-POST cached %d of %d jobs, want all", st1.Jobs.CachedAtSubmit, st1.Jobs.Total)
	}
	names, err := filepath.Glob(filepath.Join(srv.CacheDir(), "job-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(names[0]); err != nil {
		t.Fatal(err)
	}

	if rcode, body := getBody(t, ts.URL+"/v1/sweeps/"+st.ID+"/result"); rcode != http.StatusConflict {
		t.Errorf("GET result with a manifest deleted = %d, want 409: %s", rcode, body)
	}

	code, st2 := postSweep(t, ts.URL, e2eRequest("carol"))
	if code != http.StatusAccepted {
		t.Fatalf("re-POST = %d", code)
	}
	if st2.Jobs.CachedAtSubmit != st2.Jobs.Total-1 {
		t.Errorf("re-POST cached %d of %d jobs at submit, want %d",
			st2.Jobs.CachedAtSubmit, st2.Jobs.Total, st2.Jobs.Total-1)
	}
	st2 = awaitDone(t, ts.URL, st2.ID)
	if st2.Jobs.Executed != 1 {
		t.Errorf("re-POST executed %d jobs, want 1", st2.Jobs.Executed)
	}
	if after := countManifests(t, srv.CacheDir()); after != manifests {
		t.Errorf("manifests after the re-run = %d, want %d", after, manifests)
	}
	want := serialBody()
	for _, id := range []string{st2.ID, st.ID} {
		rcode, body := getBody(t, ts.URL+"/v1/sweeps/"+id+"/result")
		if rcode != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("GET result of %s = %d, body differs from a fresh serial run:\ndaemon: %q\nserial: %q",
				id, rcode, body, want)
		}
	}
}

// TestDeletedBaselineManifestRerun: a deleted baseline manifest is re-run
// and published again. The daemon's only worker simulated that baseline
// for the first sweep, so the re-run lands on the runner that computed it;
// the manifest store, not a memo in that runner, must answer it.
func TestDeletedBaselineManifestRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	srv, ts := newE2EDaemon(t, 1)
	req := sweepd.Request{Sweep: "placement", Benches: []string{e2eBench},
		Instructions: e2eInstr, Warmup: e2eWarmup, Tenant: "alice"}
	code, st := postSweep(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	st = awaitDone(t, ts.URL, st.ID)
	rcode, first := getBody(t, ts.URL+"/v1/sweeps/"+st.ID+"/result")
	if rcode != http.StatusOK {
		t.Fatalf("GET result = %d: %s", rcode, first)
	}
	manifests := countManifests(t, srv.CacheDir())
	names, err := filepath.Glob(filepath.Join(srv.CacheDir(), "job-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	deleted := false
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(`"Baseline": true`)) {
			if err := os.Remove(name); err != nil {
				t.Fatal(err)
			}
			deleted = true
			break
		}
	}
	if !deleted {
		t.Fatal("the placement sweep wrote no baseline manifest")
	}

	req.Tenant = "carol"
	code, st2 := postSweep(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("re-POST = %d", code)
	}
	st2 = awaitDone(t, ts.URL, st2.ID)
	if st2.Jobs.Executed != 1 {
		t.Errorf("re-POST executed %d jobs, want 1", st2.Jobs.Executed)
	}
	if after := countManifests(t, srv.CacheDir()); after != manifests {
		t.Errorf("manifests after the re-run = %d, want %d", after, manifests)
	}
	if rcode, body := getBody(t, ts.URL+"/v1/sweeps/"+st2.ID+"/result"); rcode != http.StatusOK || !bytes.Equal(body, first) {
		t.Errorf("GET result after the re-run = %d, body differs from the first:\n%s\nvs\n%s", rcode, body, first)
	}
}

// TestFigureRowsServed: the daemon serves the paper's figure rows, not
// only Figure 13's sweeps. A fig11 and a fig14 request each complete; a
// second tenant's re-POST of fig11 is done at admission, and its body is
// the bytes `tcpfigs -exp fig11 -gather` prints over the daemon's
// manifests. Table 1, which plans no job, is done at admission.
func TestFigureRowsServed(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	srv, ts := newE2EDaemon(t, 2)
	bodies := map[string][]byte{}
	for _, row := range []string{"fig11", "fig14"} {
		req := e2eRequest("alice")
		req.Sweep = row
		code, st := postSweep(t, ts.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("%s: POST = %d", row, code)
		}
		st = awaitDone(t, ts.URL, st.ID)
		rcode, body := getBody(t, ts.URL+"/v1/sweeps/"+st.ID+"/result")
		if rcode != http.StatusOK || !bytes.Contains(body, []byte("geomean")) {
			t.Fatalf("%s: GET result = %d: %s", row, rcode, body)
		}
		bodies[row] = body
	}

	req := e2eRequest("bob")
	req.Sweep = "fig11"
	code, st := postSweep(t, ts.URL, req)
	if code != http.StatusAccepted || st.State != sweepd.StateDone || st.Jobs.Executed != 0 {
		t.Fatalf("bob's fig11 POST = %d, %s, %+v: want done at admission", code, st.State, st.Jobs)
	}
	if _, body := getBody(t, ts.URL+"/v1/sweeps/"+st.ID+"/result"); !bytes.Equal(body, bodies["fig11"]) {
		t.Errorf("bob's body differs from alice's:\n%s\n%s", body, bodies["fig11"])
	}

	// Table 1 plans no job: it is done at admission with its body.
	req.Sweep = "table1"
	if code, st := postSweep(t, ts.URL, req); code != http.StatusAccepted || st.State != sweepd.StateDone {
		t.Errorf("table1 POST = %d, %s: want done at admission", code, st.State)
	} else if _, body := getBody(t, ts.URL+"/v1/sweeps/"+st.ID+"/result"); string(body) != experiment.Table1().String() {
		t.Errorf("table1 body = %q, want Table 1", body)
	}

	fs := flag.NewFlagSet("tcpfigs", flag.ContinueOnError)
	rf := runflags.Register(fs, "tcpfigs")
	if err := fs.Parse([]string{"-benches", e2eBench, "-n", fmt.Sprint(e2eInstr),
		"-warmup", fmt.Sprint(e2eWarmup), "-checkpoint-dir", srv.CacheDir(), "-gather"}); err != nil {
		t.Fatal(err)
	}
	r, stop, err := rf.Bind("fig11")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	row, err := experiment.Lookup("fig11")
	if err != nil {
		t.Fatal(err)
	}
	var gathered bytes.Buffer
	row.Run(r.Options).Print(&gathered)
	if err := r.Gather.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gathered.Bytes(), bodies["fig11"]) {
		t.Errorf("daemon body differs from tcpfigs -exp fig11 -gather:\ndaemon: %q\ngather: %q", bodies["fig11"], gathered.Bytes())
	}
}
