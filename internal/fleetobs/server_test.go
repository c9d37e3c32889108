package fleetobs_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/telemetry"
)

func TestServerStatusAndMetrics(t *testing.T) {
	dir := t.TempDir()
	const jobDone = "job-000000000000000a.json"
	const jobHeld = "job-000000000000000b.json"
	writeManifest(t, dir, jobDone)
	clock := distrib.NewManualClock(1000)
	writeLease(t, dir, jobHeld, "w1", 990, 100, 3)

	srv := fleetobs.NewServer(dir, clock)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/status content-type = %q", ct)
	}
	var snap fleetobs.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/status did not decode as FleetSnapshot: %v", err)
	}
	if snap.Total != 2 || snap.Done != 1 || snap.States.Running != 1 {
		t.Errorf("/status snapshot = total %d done %d running %d, want 2/1/1",
			snap.Total, snap.Done, snap.States.Running)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("/metrics content-type = %q, want %q", ct, telemetry.PromContentType)
	}
	body := readAll(t, mresp)
	for _, want := range []string{
		"# HELP tcp_fleet_jobs_total",
		"# TYPE tcp_fleet_jobs_total gauge",
		"tcp_fleet_jobs_total 2",
		"tcp_fleet_jobs_done 1",
		"tcp_fleet_jobs_running 1",
		"tcp_fleet_workers_fresh 1",
		"tcp_fleet_completion_pct 50",
		"tcp_fleet_scrapes 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// Regression: /status on a server pointed at a checkpoint directory that
// does not exist yet (sweep launched, no worker has created it) must serve
// a 200 with an empty snapshot, not a 500.
func TestServerStatusBeforeBootstrap(t *testing.T) {
	dir := t.TempDir() + "/not-created-yet"
	srv := fleetobs.NewServer(dir, distrib.NewManualClock(1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status = %d, want 200 during bootstrap", resp.StatusCode)
	}
	var snap fleetobs.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/status did not decode as FleetSnapshot: %v", err)
	}
	if snap.Total != 0 || snap.Done != 0 || len(snap.Jobs) != 0 {
		t.Errorf("bootstrap snapshot = %+v, want zero jobs", snap)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("/metrics = %d, want 200 during bootstrap", mresp.StatusCode)
	}
	if body := readAll(t, mresp); !strings.Contains(body, "tcp_fleet_jobs_total 0") {
		t.Errorf("/metrics missing zero jobs gauge:\n%s", body)
	}
}

func TestServerAddMetrics(t *testing.T) {
	dir := t.TempDir()
	srv := fleetobs.NewServer(dir, distrib.NewManualClock(1))
	reg := telemetry.NewRegistry()
	reg.Counter("run.instructions", "retired").Add(42)
	srv.AddMetrics(func() []telemetry.PromSet {
		return []telemetry.PromSet{telemetry.PromFromRegistry(reg,
			telemetry.PromLabel{Name: "bench", Value: "swim"})}
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readAll(t, resp)
	if !strings.Contains(body, `tcp_run_instructions{bench="swim"} 42`) {
		t.Errorf("/metrics missing attached registry:\n%s", body)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
