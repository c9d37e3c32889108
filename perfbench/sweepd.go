package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sweepd"
)

// The sweepd workload is one researcher's client of an in-process
// tcpsweepd on loopback, in a closed loop: it submits a cold request for a
// 28-point size sweep, waits for the result, then sends cached requests —
// a POST and a result GET each — under a fresh tenant every time, because
// an identical re-POST is answered from the daemon's in-memory sweep map
// and would skip planning, manifest reads and result rendering.
var sweepdBenches = []string{"mcf", "swim"}

// sweepdWarmRuns is how many cached requests follow each cold one: enough
// for ten beyond the p95 even in a run of one round.
const sweepdWarmRuns = 220

// daemon is a sweepd.Server serving on a loopback port.
type daemon struct {
	srv       *sweepd.Server
	base      string
	transport *http.Transport
	client    *http.Client
	served    chan error
}

func startDaemon(root string) (*daemon, error) {
	srv, err := sweepd.New(sweepd.Config{Root: root, Workers: runtime.NumCPU()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	tr := &http.Transport{}
	d := &daemon{srv: srv, base: "http://" + ln.Addr().String(), transport: tr,
		client: &http.Client{Transport: tr, Timeout: time.Minute}, served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// close stops the daemon and waits until its server and workers have ended.
func (d *daemon) close() error {
	d.transport.CloseIdleConnections()
	d.srv.Close()
	return <-d.served
}

func (d *daemon) post(req sweepd.Request) (sweepd.Status, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return sweepd.Status{}, err
	}
	resp, err := d.client.Post(d.base+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return sweepd.Status{}, err
	}
	defer resp.Body.Close()
	var st sweepd.Status
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return st, fmt.Errorf("POST /v1/sweeps: %s: %s", resp.Status, msg)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// get fetches path, returning the status code and body.
func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// awaitResult polls a sweep's result until it is served.
func (d *daemon) awaitResult(id string) ([]byte, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body, err := d.get("/v1/sweeps/" + id + "/result")
		switch {
		case err != nil:
			return nil, err
		case code == http.StatusOK:
			return body, nil
		case code != http.StatusConflict || time.Now().After(deadline):
			return nil, fmt.Errorf("GET result of %s: %d: %s", id, code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func sweepdRequest(seed uint64, tenant string) sweepd.Request {
	return sweepd.Request{Sweep: "size", Benches: sweepdBenches,
		Instructions: gridInstructions, Warmup: gridWarmup, WarmupFidelity: "fast",
		Seed: seed, WarmFork: true, Tenant: tenant}
}

// sweepdSamples collects what sweepd operations measured.
type sweepdSamples struct {
	samples
	post, result, lookups  []float64
	cached, executed, hits int
}

// sweepdRound starts setupReps daemons in turn, stopping all but the last.
// It sends the last one cold request and sweepdWarmRuns cached requests,
// checks every reply, and stops it. The daemons share the round's root,
// whose cache stays empty until the cold request: only the first creates
// its directories, so the median set-up is the daemon's start and not a
// mkdir on the host's disk.
func sweepdRound(b *bench, n int, jobs []experiment.Job, s *sweepdSamples) (err error) {
	root := filepath.Join(b.work, fmt.Sprintf("sweepd-%d", n))
	defer os.RemoveAll(root)
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		err := s.setUp(func() (err error) {
			d, err = startDaemon(root)
			return err
		})
		if err != nil {
			return err
		}
	}
	defer func() { err = errors.Join(err, d.close()) }()
	quiesce()

	t1 := time.Now()
	st, err := d.post(sweepdRequest(b.seed, "cold"))
	if err != nil {
		return err
	}
	cold, err := d.awaitResult(st.ID)
	if err != nil {
		return err
	}
	coldD := time.Since(t1)
	lookups, err := checkManifests(b.verify, d.srv.CacheDir(), jobs)
	b.op(errors.Join(err, b.verify.rendered(cold)))
	insts := float64(len(sweepdBenches)*gridWarmup + len(jobs)*gridInstructions)
	s.cold = append(s.cold, coldD.Seconds())
	s.rate = append(s.rate, insts/coldD.Seconds()/1e6)
	s.lookups = append(s.lookups, lookups...)
	if code, body, err := d.get("/v1/sweeps/" + st.ID); err == nil && code == http.StatusOK {
		var done sweepd.Status
		if json.Unmarshal(body, &done) == nil {
			s.executed = done.Jobs.Executed
			s.hits = 0
			for _, w := range done.Workers {
				s.hits += int(w.ManifestHits)
			}
		}
	}

	runtime.GC() // the cold request's garbage is not the cached requests' cost
	from := len(s.warm)
	for k := 0; k < sweepdWarmRuns; k++ {
		t0 := time.Now()
		st, err := d.post(sweepdRequest(b.seed, fmt.Sprintf("client-%d", k)))
		if err != nil {
			return err
		}
		t1 := time.Now()
		code, body, err := d.get("/v1/sweeps/" + st.ID + "/result")
		if err != nil {
			return err
		}
		t2 := time.Now()
		switch {
		case st.State != sweepd.StateDone || st.Jobs.CachedAtSubmit != st.Jobs.Total:
			err = fmt.Errorf("cached request: state %s, %d of %d jobs cached", st.State, st.Jobs.CachedAtSubmit, st.Jobs.Total)
		case code != http.StatusOK:
			err = fmt.Errorf("cached request: GET result: %d: %s", code, body)
		case !bytes.Equal(body, cold):
			err = errors.New("cached result body differs from the cold body")
		}
		b.op(err)
		s.warm = append(s.warm, millis(t2.Sub(t0)))
		s.post = append(s.post, millis(t1.Sub(t0)))
		s.result = append(s.result, millis(t2.Sub(t1)))
		s.cached = st.Jobs.CachedAtSubmit
	}
	s.roundP95(from)
	s.rss = append(s.rss, peakRSSMB())
	return nil
}

func runSweepd(b *bench) error {
	jobs := planSweep(b.seed, sweepdBenches)
	if !b.trace {
		var s sweepdSamples
		for n, start := 0, time.Now(); b.more(start, n); n++ {
			if err := sweepdRound(b, n, jobs, &s); err != nil {
				return err
			}
		}
		return b.endToEnd(s.samples)
	}

	// Traced: as for the grid, then direct timings of one forked point per
	// benchmark.
	var plain, profiled sweepdSamples
	shares, err := b.traceRounds(func(n int, underProfile bool) error {
		if underProfile {
			return sweepdRound(b, n, jobs, &profiled)
		}
		return sweepdRound(b, n, jobs, &plain)
	})
	if err != nil {
		return err
	}
	b.shares(shares)
	b.layer("trace.overhead", median(profiled.cold)/median(plain.cold))
	b.layer("sweepd.post_ms", median(profiled.post))
	b.layer("sweepd.result_ms", median(profiled.result))
	b.layer("sweepd.jobs_cached", float64(profiled.cached))
	b.layer("sweepd.jobs_executed", float64(profiled.executed))
	b.layer("experiment.store_lookup_us", median(profiled.lookups))
	b.layer("experiment.manifest_hits", float64(profiled.hits))
	return b.probeForks(jobs[0].Config, sweepdBenches)
}
