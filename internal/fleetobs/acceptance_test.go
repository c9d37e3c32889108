package fleetobs_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
)

// The fleet-observability acceptance suite: the distributed crash/steal
// scenarios from internal/experiment's distributed tests, re-run with the
// flight recorder attached and a status server watching the directory. The
// invariants under test: /status returns a valid snapshot at every crash
// point, the flight timeline is byte-identical across two runs on the
// manual clock, and attaching the observability layer never perturbs the
// sweep — results stay byte-identical to a serial run.

// obsTTL matches the distributed suite's deliberately short lease TTL.
const obsTTL = 150 * time.Millisecond

func obsOptions(r *experiment.Runner) experiment.Options {
	return experiment.Options{Instructions: 8_000, Warmup: 16_000, Seed: 1,
		Benches: []string{"swim", "mcf"}, Runner: r}
}

func obsSerial(t *testing.T) string {
	t.Helper()
	return experiment.Fig13IndexBits(obsOptions(experiment.NewRunner(1))).String()
}

// runObsWorker runs one in-process distributed worker with a flight
// recorder attached, to completion or injected crash.
func runObsWorker(t *testing.T, dir, id string, clock distrib.Clock, fail func(p distrib.Point, job string) bool) (out string, crashed bool) {
	t.Helper()
	store, err := experiment.NewResultStore(dir, true)
	if err != nil {
		t.Errorf("worker %s: %v", id, err)
		return "", false
	}
	claims, err := distrib.NewStore(dir, id, obsTTL, clock)
	if err != nil {
		t.Errorf("worker %s: %v", id, err)
		return "", false
	}
	rec := distrib.NewRecorder(dir, id, clock, 0)
	claims.SetRecorder(rec)
	store.SetRecorder(rec)
	if fail != nil {
		f := &distrib.Faults{}
		f.SetFail(fail)
		claims.SetFaults(f)
		store.SetFaults(f)
	}
	r := experiment.NewRunner(1)
	r.SetResultStore(store)
	r.SetClaims(claims)

	func() {
		defer func() {
			if p := recover(); p != nil {
				if _, ok := p.(*distrib.Crash); ok {
					crashed = true
					return
				}
				panic(p)
			}
		}()
		out = experiment.Fig13IndexBits(obsOptions(r)).String()
	}()
	return out, crashed
}

// crashFirst arms a fault point to fire on the first job that reaches it.
func crashFirst(p distrib.Point) func(distrib.Point, string) bool {
	var mu sync.Mutex
	fired := false
	return func(got distrib.Point, job string) bool {
		if got != p {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		if fired {
			return false
		}
		fired = true
		return true
	}
}

// getStatus fetches and decodes /status, failing the test on anything but a
// valid FleetSnapshot.
func getStatus(t *testing.T, url string) fleetobs.FleetSnapshot {
	t.Helper()
	resp, err := http.Get(url + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status = %s", resp.Status)
	}
	var snap fleetobs.FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/status did not decode as FleetSnapshot: %v", err)
	}
	return snap
}

func TestFleetObservabilityUnderCrashes(t *testing.T) {
	serial := obsSerial(t)
	for _, point := range []distrib.Point{distrib.AfterClaim, distrib.MidJob, distrib.BeforeRename} {
		t.Run(string(point), func(t *testing.T) {
			dir := t.TempDir()
			srv := fleetobs.NewServer(dir, nil)
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			_, crashed := runObsWorker(t, dir, "w1", nil, crashFirst(point))
			if !crashed {
				t.Fatalf("w1 did not crash at %s", point)
			}

			// Mid-sweep, right after the crash: the snapshot must be valid
			// and show w1's abandoned footprint.
			snap := getStatus(t, ts.URL)
			if snap.Total == 0 {
				t.Fatalf("post-crash snapshot discovered no jobs: %+v", snap)
			}
			if _, ok := snap.Lookup("grid"); ok {
				t.Error("grid.json misclassified as a job")
			}

			var wg sync.WaitGroup
			outs := make([]string, 2)
			crashes := make([]bool, 2)
			for i, id := range []string{"w2", "w3"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[i], crashes[i] = runObsWorker(t, dir, id, nil, nil)
				}()
			}
			wg.Wait()
			for i := range outs {
				if crashes[i] {
					t.Fatalf("survivor w%d crashed", i+2)
				}
				if outs[i] != serial {
					t.Errorf("w%d output differs from serial run with observability attached:\n got: %q\nwant: %q",
						i+2, outs[i], serial)
				}
			}

			// Post-sweep: all 8 grid jobs done, 100% complete.
			snap = getStatus(t, ts.URL)
			if snap.Done != 8 || snap.States.Done != 8 {
				t.Errorf("final snapshot done = %d, want 8: %+v", snap.Done, snap.States)
			}
			if snap.CompletionPct != 100 {
				t.Errorf("final completion = %f%%, want 100", snap.CompletionPct)
			}

			// The flight logs replay the injected failure: a crash event at
			// the injected point and the survivors' steal of w1's lease.
			evs, err := fleetobs.ReadTimeline(dir)
			if err != nil {
				t.Fatalf("ReadTimeline: %v", err)
			}
			var sawCrash, sawSteal bool
			for _, ev := range evs {
				if ev.Event == distrib.EventCrash && ev.Point == string(point) && ev.Worker == "w1" {
					sawCrash = true
				}
				if ev.Event == distrib.EventSteal {
					sawSteal = true
				}
			}
			if !sawCrash {
				t.Errorf("timeline missing w1's crash at %s", point)
			}
			if !sawSteal {
				t.Error("timeline missing the survivors' steal")
			}
		})
	}
}

// TestTimelineByteIdenticalAcrossRuns replays the same crash/steal scenario
// twice on manual clocks and asserts the rendered timelines match byte for
// byte — the determinism guarantee that makes flight logs diffable across
// runs. Workers run sequentially so the only timestamps are the two the
// test script sets.
func TestTimelineByteIdenticalAcrossRuns(t *testing.T) {
	serial := obsSerial(t)
	run := func() string {
		dir := t.TempDir()
		clock := distrib.NewManualClock(0)
		_, crashed := runObsWorker(t, dir, "w1", clock, crashFirst(distrib.AfterClaim))
		if !crashed {
			t.Fatal("w1 did not crash")
		}
		clock.Advance(obsTTL + time.Nanosecond) // expire w1's lease
		out, crashed := runObsWorker(t, dir, "w2", clock, nil)
		if crashed {
			t.Fatal("w2 crashed")
		}
		if out != serial {
			t.Errorf("w2 output differs from serial run:\n got: %q\nwant: %q", out, serial)
		}
		var b bytes.Buffer
		if err := fleetobs.WriteTimeline(&b, dir); err != nil {
			t.Fatalf("WriteTimeline: %v", err)
		}
		// Drop the header line: it names the (distinct) temp directory.
		_, body, ok := strings.Cut(b.String(), "\n")
		if !ok {
			t.Fatalf("timeline missing header: %q", b.String())
		}
		return body
	}
	first := run()
	second := run()
	if first != second {
		t.Errorf("timelines differ across identical runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	for _, want := range []string{"crash", "point=after-claim", "steal", "manifest-commit"} {
		if !strings.Contains(first, want) {
			t.Errorf("timeline missing %q:\n%s", want, first)
		}
	}
}
