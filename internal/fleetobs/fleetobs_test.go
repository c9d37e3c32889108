package fleetobs_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/sim"
)

// writeLease publishes a lease record the way a worker would leave it.
func writeLease(t *testing.T, dir, job, worker string, heartbeat, ttl int64, seq uint64) {
	t.Helper()
	l := distrib.Lease{Job: job, Worker: worker, Heartbeat: heartbeat, TTL: ttl, Seq: seq}
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, job+distrib.LeaseSuffix), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeFlight writes a job's flight log from explicit events.
func writeFlight(t *testing.T, dir, job string, evs []distrib.FlightEvent) {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range evs {
		ev.Job = job
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, job+distrib.FlightSuffix), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeManifest(t *testing.T, dir, job string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, job), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanEmptyDir(t *testing.T) {
	snap, err := fleetobs.Scan(t.TempDir(), distrib.NewManualClock(1))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if snap.Total != 0 || len(snap.Jobs) != 0 || len(snap.Workers) != 0 {
		t.Errorf("empty dir snapshot = %+v, want zero jobs and workers", snap)
	}
	if snap.Grid != nil {
		t.Errorf("Grid = %+v, want nil without grid.json", snap.Grid)
	}
}

func TestScanMissingDir(t *testing.T) {
	// A sweep that was just launched has no checkpoint directory yet; the
	// scan must report an empty fleet, not an error, so status endpoints
	// stay up during bootstrap.
	dir := filepath.Join(t.TempDir(), "absent")
	snap, err := fleetobs.Scan(dir, distrib.NewManualClock(1))
	if err != nil {
		t.Fatalf("Scan on missing dir: %v", err)
	}
	if snap.Total != 0 || snap.Done != 0 || len(snap.Jobs) != 0 || len(snap.Workers) != 0 {
		t.Errorf("missing-dir snapshot = %+v, want zero jobs and workers", snap)
	}
	if snap.States != (fleetobs.StateCounts{}) {
		t.Errorf("States = %+v, want all zero", snap.States)
	}
	if snap.CompletionPct != 0 || snap.ETANS != 0 || snap.Grid != nil {
		t.Errorf("derived fields not zero: pct=%v eta=%d grid=%v",
			snap.CompletionPct, snap.ETANS, snap.Grid)
	}
	if snap.Dir != dir {
		t.Errorf("Dir = %q, want %q", snap.Dir, dir)
	}
}

func TestScanClassification(t *testing.T) {
	dir := t.TempDir()
	const (
		jobDone    = "job-000000000000000a.json"
		jobRunning = "job-000000000000000b.json"
		jobClaimed = "job-000000000000000c.json"
		jobStale   = "job-000000000000000d.json"
		jobCorrupt = "job-000000000000000e.json"
		jobStolen  = "job-000000000000000f.json"
		jobPending = "job-0000000000000010.json"
	)
	clock := distrib.NewManualClock(1000)

	writeManifest(t, dir, jobDone)
	writeFlight(t, dir, jobDone, []distrib.FlightEvent{
		{T: 100, Worker: "w1", Event: distrib.EventClaim},
		{T: 400, Worker: "w1", Event: distrib.EventManifestCommit},
		{T: 400, Worker: "w1", Event: distrib.EventRelease},
	})
	writeLease(t, dir, jobRunning, "w2", 950, 100, 2)
	writeLease(t, dir, jobClaimed, "w3", 980, 100, 0)
	writeLease(t, dir, jobStale, "w4", 500, 100, 1)
	if err := os.WriteFile(filepath.Join(dir, jobCorrupt+distrib.LeaseSuffix), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeFlight(t, dir, jobStolen, []distrib.FlightEvent{
		{T: 200, Worker: "w1", Event: distrib.EventClaim},
		{T: 900, Worker: "w2", Event: distrib.EventSteal},
	})
	writeFlight(t, dir, jobPending, []distrib.FlightEvent{
		{T: 300, Worker: "w1", Event: distrib.EventClaim},
		{T: 350, Worker: "w1", Event: distrib.EventCrash, Point: string(distrib.MidJob)},
	})

	snap, err := fleetobs.Scan(dir, clock)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if snap.NowNS != 1000 {
		t.Errorf("NowNS = %d, want 1000", snap.NowNS)
	}
	wantStates := map[string]fleetobs.JobState{
		jobDone:    fleetobs.JobDone,
		jobRunning: fleetobs.JobRunning,
		jobClaimed: fleetobs.JobClaimed,
		jobStale:   fleetobs.JobStale,
		jobCorrupt: fleetobs.JobStale,
		jobStolen:  fleetobs.JobStolen,
		jobPending: fleetobs.JobPending,
	}
	for job, want := range wantStates {
		js, ok := snap.Lookup(job)
		if !ok {
			t.Errorf("job %s missing from snapshot", job)
			continue
		}
		if js.State != want {
			t.Errorf("%s state = %s, want %s", job, js.State, want)
		}
	}
	if c := snap.States; c != (fleetobs.StateCounts{Pending: 1, Claimed: 1, Running: 1, Stale: 2, Stolen: 1, Done: 1}) {
		t.Errorf("state counts = %+v", c)
	}
	if snap.Total != 7 || snap.Done != 1 {
		t.Errorf("Total/Done = %d/%d, want 7/1", snap.Total, snap.Done)
	}
	if snap.CorruptLeases != 1 {
		t.Errorf("CorruptLeases = %d, want 1", snap.CorruptLeases)
	}
	if want := 100.0 / 7; snap.CompletionPct < want-0.01 || snap.CompletionPct > want+0.01 {
		t.Errorf("CompletionPct = %f, want ~%f", snap.CompletionPct, want)
	}

	// Per-job detail: the running job carries lease metadata, the done job
	// its claim-to-commit wall time, the stolen job its steal count.
	if js, _ := snap.Lookup(jobRunning); js.Worker != "w2" || js.HeartbeatAgeNS != 50 || js.TTLNS != 100 || js.Seq != 2 {
		t.Errorf("running job = %+v", js)
	}
	if js, _ := snap.Lookup(jobDone); js.WallNS != 300 || js.Worker != "w1" {
		t.Errorf("done job = %+v, want wall 300 by w1", js)
	}
	if js, _ := snap.Lookup(jobStolen); js.Steals != 1 || js.Worker != "w2" {
		t.Errorf("stolen job = %+v, want 1 steal by w2", js)
	}
	if snap.MeanJobNS != 300 {
		t.Errorf("MeanJobNS = %d, want 300", snap.MeanJobNS)
	}
	// ETA: 6 remaining jobs at 300ns each over 2 fresh workers (w2, w3).
	if snap.ETANS != 900 {
		t.Errorf("ETANS = %d, want 900", snap.ETANS)
	}

	// Worker rollup: w1 committed one manifest; w2 is fresh with one live
	// lease and one steal; w4 only holds a stale lease.
	byID := map[string]fleetobs.WorkerStatus{}
	for _, ws := range snap.Workers {
		byID[ws.ID] = ws
	}
	if w := byID["w1"]; w.Fresh || w.Done != 1 || w.MeanJobNS != 300 {
		t.Errorf("w1 = %+v, want not fresh, 1 done, mean 300", w)
	}
	if w := byID["w2"]; !w.Fresh || w.Claimed != 1 || w.Steals != 1 {
		t.Errorf("w2 = %+v, want fresh, 1 claimed, 1 steal", w)
	}
	if w := byID["w4"]; w.Fresh || w.Stale != 1 || w.LastSeenAgeNS != 500 {
		t.Errorf("w4 = %+v, want stale holder last seen 500ns ago", w)
	}
}

// TestScanTTLBoundary mirrors distrib's TestStealTTLBoundary: the observer
// must agree with the protocol that a lease is live through the instant
// Heartbeat+TTL and stale one nanosecond after — otherwise the status view
// reports a worker dead (or alive) that the stealers disagree about.
func TestScanTTLBoundary(t *testing.T) {
	const job = "job-00000000deadbeef.json"
	const heartbeat, ttl = 1000, 100
	for _, tc := range []struct {
		name string
		now  int64
		want fleetobs.JobState
	}{
		{"one tick before expiry", heartbeat + ttl - 1, fleetobs.JobRunning},
		{"exactly at expiry", heartbeat + ttl, fleetobs.JobRunning},
		{"one tick past expiry", heartbeat + ttl + 1, fleetobs.JobStale},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLease(t, dir, job, "w1", heartbeat, ttl, 1)
			snap, err := fleetobs.Scan(dir, distrib.NewManualClock(tc.now))
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			js, ok := snap.Lookup(job)
			if !ok {
				t.Fatal("job missing from snapshot")
			}
			if js.State != tc.want {
				t.Errorf("state at now=%d = %s, want %s", tc.now, js.State, tc.want)
			}
		})
	}
}

func TestTimelineMergesAndOrders(t *testing.T) {
	dir := t.TempDir()
	const jobA = "job-000000000000000a.json"
	const jobB = "job-000000000000000b.json"
	writeFlight(t, dir, jobB, []distrib.FlightEvent{
		{T: 10, Worker: "w2", Event: distrib.EventClaim},
		{T: 30, Worker: "w2", Event: distrib.EventManifestCommit},
	})
	writeFlight(t, dir, jobA, []distrib.FlightEvent{
		{T: 10, Worker: "w1", Event: distrib.EventClaim},
		{T: 20, Worker: "w1", Event: distrib.EventHeartbeat, Seq: 1},
	})
	evs, err := fleetobs.ReadTimeline(dir)
	if err != nil {
		t.Fatalf("ReadTimeline: %v", err)
	}
	var got []string
	for _, ev := range evs {
		got = append(got, ev.Job+":"+ev.Event)
	}
	// Ordered by time; the t=10 tie breaks by job name.
	want := []string{
		jobA + ":claim", jobB + ":claim",
		jobA + ":heartbeat", jobB + ":manifest-commit",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("timeline order = %v, want %v", got, want)
	}

	var b1, b2 bytes.Buffer
	if err := fleetobs.WriteTimeline(&b1, dir); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if err := fleetobs.WriteTimeline(&b2, dir); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("WriteTimeline not deterministic across calls")
	}
	if out := b1.String(); !strings.Contains(out, "4 events across 2 jobs") ||
		!strings.Contains(out, "seq=1") {
		t.Errorf("timeline output:\n%s", out)
	}
}

// TestWriteHoles: a gather over a grid with one stale-leased hole and one
// hole no worker ever claimed names both, and the hole list shows each
// with its last-known holder: the stale lease's worker, and no known
// holder for the job that left no trace on disk. Points with manifests
// are not listed.
func TestWriteHoles(t *testing.T) {
	dir := t.TempDir()
	store, err := experiment.NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	gather := func() *experiment.Gather {
		g := experiment.NewGather(store.LookupJob, math.MaxInt)
		r := experiment.NewRunner(1)
		r.SetAnswer(g.Answer)
		experiment.Fig13IndexBits(experiment.Options{Instructions: 8_000, Warmup: 8_000, Seed: 1,
			Benches: []string{"swim", "mcf"}, Runner: r})
		return g
	}
	plan := gather()
	if len(plan.Jobs) != 8 {
		t.Fatalf("grid has %d points, want 8", len(plan.Jobs))
	}
	stale, never := plan.Names[2], plan.Names[5]
	for i, j := range plan.Jobs {
		if n := plan.Names[i]; n != stale && n != never {
			store.Save(j.Bench, j.Factory.Name, j.Baseline, j.Config, sim.Result{})
		}
	}
	// A stale holder: heartbeat far in the past on the system clock.
	writeLease(t, dir, stale, "w9", 1, int64(time.Millisecond), 4)

	var ige *experiment.IncompleteGridError
	if err := gather().Err(); !errors.As(err, &ige) {
		t.Fatalf("gather = %v, want *experiment.IncompleteGridError", err)
	}
	if want := []string{stale, never}; !slices.Equal(ige.Names, want) {
		t.Fatalf("gather holes = %v, want %v", ige.Names, want)
	}
	var b bytes.Buffer
	if err := fleetobs.WriteHoles(&b, dir, ige.Names); err != nil {
		t.Fatalf("WriteHoles: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], "2 incomplete job(s)") {
		t.Fatalf("WriteHoles output = %q, want a count line and two holes", b.String())
	}
	if l := lines[1]; !strings.Contains(l, stale) || !strings.Contains(l, "stale, last holder w9") {
		t.Errorf("stale hole line = %q", l)
	}
	if l := lines[2]; !strings.Contains(l, never) || !strings.Contains(l, "pending, no known holder") {
		t.Errorf("never-claimed hole line = %q", l)
	}
}

func TestRenderSmoke(t *testing.T) {
	dir := t.TempDir()
	const job = "job-000000000000000a.json"
	writeManifest(t, dir, job)
	snap, err := fleetobs.Scan(dir, distrib.NewManualClock(1))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := fleetobs.Render(&b, snap); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := b.String()
	for _, want := range []string{"fleet status", "1 done", "100.0% complete", job} {
		if !strings.Contains(out, want) {
			t.Errorf("Render output missing %q:\n%s", want, out)
		}
	}
}
