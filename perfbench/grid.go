package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/workload"
)

// The grid workload is the Figure 13 PHT-size sweep over a few benchmarks,
// run as `tcpsweep -sweep size -warmup-fidelity fast -warmfork
// -checkpoint-dir <fresh dir>` runs it: through experiment.Runner with one
// worker per core. It passes through the functional warmup engine,
// checkpoint Save/Restore, manifest writes and the runner's warm-image
// memo; its cycle-accurate measured windows are short.
var gridBenches = []string{"mcf", "swim", "gzip"}

const (
	gridWarmup       = 200_000
	gridInstructions = 100_000
	// gridWarmRuns is how many cached re-runs follow each cold grid: enough
	// for ten beyond the p95 even in a run of one round.
	gridWarmRuns = 220
)

// sizeSweep is the fast-warmup, warm-forked size sweep over benches.
func sizeSweep(seed uint64, benches []string, r *experiment.Runner) experiment.Options {
	return experiment.Options{Instructions: gridInstructions, Warmup: gridWarmup, Seed: seed,
		Benches: benches, WarmupFidelity: sim.FidelityFast, BaselineWarmup: true, Runner: r}
}

// render prints series as tcpsweep prints them to standard output.
func render(ss []stats.Series) []byte {
	var buf bytes.Buffer
	for _, s := range ss {
		fmt.Fprintln(&buf, s.String())
	}
	return buf.Bytes()
}

// planSweep enumerates the size sweep's jobs in the runner's plan mode, so
// the list is the experiment's own.
func planSweep(seed uint64, benches []string) []experiment.Job {
	r := experiment.NewRunner(1)
	var jobs []experiment.Job
	r.SetPlan(func(j experiment.Job) { jobs = append(jobs, j) })
	experiment.Fig13PHTSize(sizeSweep(seed, benches, r))
	return jobs
}

func jobKey(j experiment.Job) (key, factory string) {
	factory = j.Factory.Name
	if j.Baseline {
		factory = sim.NoPrefetch().Name
	}
	return j.Bench + "/" + factory, factory
}

// checkManifests reads every job's result from the manifest store in dir
// and checks its counters, returning the latency of each Lookup in µs.
func checkManifests(v *verifier, dir string, jobs []experiment.Job) ([]float64, error) {
	st, err := experiment.NewResultStore(dir, true)
	if err != nil {
		return nil, err
	}
	lookups := make([]float64, 0, len(jobs))
	var errs []error
	for _, j := range jobs {
		key, factory := jobKey(j)
		t0 := time.Now()
		res, ok := st.Lookup(j.Bench, factory, j.Baseline, j.Config)
		lookups = append(lookups, float64(time.Since(t0))/float64(time.Microsecond))
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no manifest", key))
			continue
		}
		errs = append(errs, v.sim(key, countersOf(res)))
	}
	return lookups, errors.Join(errs...)
}

// coldGrid is one grid on a fresh checkpoint directory.
type coldGrid struct {
	run            time.Duration
	body           []byte
	warmups, forks uint64
}

// insts is the number of instructions the grid simulated: one warmup per
// warm image, a measured window per forked job, and both for any job that
// fell back to a cold run.
func (g coldGrid) insts(jobs int) float64 {
	cold := uint64(jobs) - g.forks
	return float64(g.warmups*gridWarmup + g.forks*gridInstructions + cold*(gridWarmup+gridInstructions))
}

// newColdRunner is a grid's set-up: a runner with one worker per core, a
// fresh checkpoint directory and a result store that writes manifests.
func newColdRunner(dir string) (*experiment.Runner, error) {
	r := experiment.NewRunner(runtime.NumCPU())
	r.SetCheckpointDir(dir)
	st, err := experiment.NewResultStore(dir, false)
	if err != nil {
		return nil, err
	}
	r.SetResultStore(st)
	return r, nil
}

func runColdGrid(r *experiment.Runner, seed uint64) coldGrid {
	t0 := time.Now()
	g := coldGrid{body: render(experiment.Fig13PHTSize(sizeSweep(seed, gridBenches, r)))}
	g.run = time.Since(t0)
	g.warmups, g.forks = r.WarmForkStats()
	return g
}

// runCachedGrid re-runs the grid with every job answered from the manifests
// a cold grid left in dir.
func runCachedGrid(dir string, seed uint64) (time.Duration, []byte, uint64, error) {
	t0 := time.Now()
	r := experiment.NewRunner(runtime.NumCPU())
	st, err := experiment.NewResultStore(dir, true)
	if err != nil {
		return 0, nil, 0, err
	}
	r.SetResultStore(st)
	body := render(experiment.Fig13PHTSize(sizeSweep(seed, gridBenches, r)))
	return time.Since(t0), body, r.StoreStats(), nil
}

// gridSamples collects what grid operations measured.
type gridSamples struct {
	samples
	lookups              []float64
	warmups, forks, hits uint64
}

// gridRound sets up setupReps times, runs one cold grid on the last
// set-up and its cached re-runs, and checks each. A set-up enumerates the
// sweep's jobs in the runner's plan mode — the list the checks read the
// manifests against — and creates the runner and its result store. All
// set-ups share the round's checkpoint directory, which stays empty until
// the cold grid: only the first creates it, so the median set-up is the
// program's work and not a mkdir on the host's disk.
func gridRound(b *bench, n int, s *gridSamples) error {
	dir := filepath.Join(b.work, fmt.Sprintf("grid-%d", n))
	defer os.RemoveAll(dir)
	var r *experiment.Runner
	var jobs []experiment.Job
	for i := 0; i < setupReps; i++ {
		err := s.setUp(func() (err error) {
			jobs = planSweep(b.seed, gridBenches)
			r, err = newColdRunner(dir)
			return err
		})
		if err != nil {
			return err
		}
	}
	quiesce()
	g := runColdGrid(r, b.seed)
	lookups, err := checkManifests(b.verify, dir, jobs)
	b.op(errors.Join(err, b.verify.rendered(g.body)))
	s.cold = append(s.cold, g.run.Seconds())
	s.rate = append(s.rate, g.insts(len(jobs))/g.run.Seconds()/1e6)
	s.lookups = append(s.lookups, lookups...)
	s.warmups, s.forks = g.warmups, g.forks
	runtime.GC() // the cold grid's garbage is not the re-runs' cost
	from := len(s.warm)
	for k := 0; k < gridWarmRuns; k++ {
		d, body, hits, err := runCachedGrid(dir, b.seed)
		if err != nil {
			return err
		}
		switch {
		case hits != uint64(len(jobs)):
			err = fmt.Errorf("cached grid: %d manifest hits, want %d", hits, len(jobs))
		case !bytes.Equal(body, g.body):
			err = errors.New("cached grid output differs from the cold grid's")
		}
		b.op(err)
		s.warm = append(s.warm, millis(d))
		s.hits = hits
	}
	s.roundP95(from)
	s.rss = append(s.rss, peakRSSMB())
	return nil
}

func runGrid(b *bench) error {
	if !b.trace {
		var s gridSamples
		for n, start := 0, time.Now(); b.more(start, n); n++ {
			if err := gridRound(b, n, &s); err != nil {
				return err
			}
		}
		return b.endToEnd(s.samples)
	}

	// Traced: the profiler is the only instrumentation on the grid's own
	// path, so its cost is the tracing overhead. Then time the layers a
	// grid point passes through with direct sim.Machine calls.
	var plain, profiled gridSamples
	shares, err := b.traceRounds(func(n int, underProfile bool) error {
		if underProfile {
			return gridRound(b, n, &profiled)
		}
		return gridRound(b, n, &plain)
	})
	if err != nil {
		return err
	}
	b.shares(shares)
	b.layer("trace.overhead", median(profiled.cold)/median(plain.cold))
	b.layer("experiment.store_lookup_us", median(profiled.lookups))
	b.layer("experiment.warmups", float64(profiled.warmups))
	b.layer("experiment.forks", float64(profiled.forks))
	b.layer("experiment.manifest_hits", float64(profiled.hits))
	return b.probeForks(planSweep(b.seed, gridBenches)[0].Config, gridBenches)
}

// probeForks times, for each benchmark, the calls one warm-forked grid
// point makes: the baseline warmup to the boundary, the checkpoint, the
// restore into the scheme's machine and its measured window. The forked
// result must equal the grid's result for the same point.
func (b *bench) probeForks(cfg sim.Config, benches []string) error {
	var warmNS, measureNS, cycles int64
	var save, restore, image []float64
	f := sim.TCP8K()
	var errs []error
	for _, name := range benches {
		spec, err := workload.Spec2000(name)
		if err != nil {
			return err
		}
		base, err := sim.NewMachine(spec, sim.NoPrefetch(), cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		base.RunTo(cfg.Warmup)
		t1 := time.Now()
		img, err := base.Checkpoint()
		if err != nil {
			return err
		}
		t2 := time.Now()
		m, err := sim.NewMachine(spec, f, cfg)
		if err != nil {
			return err
		}
		t3 := time.Now()
		if err := m.RestoreImage(img); err != nil {
			return err
		}
		t4 := time.Now()
		res := m.Run()
		t5 := time.Now()
		errs = append(errs, b.verify.sim(name+"/"+f.Name, countersOf(res)))
		warmNS += int64(t1.Sub(t0))
		measureNS += int64(t5.Sub(t4))
		cycles += res.CPU.Cycles
		save = append(save, millis(t2.Sub(t1)))
		restore = append(restore, millis(t4.Sub(t3)))
		image = append(image, float64(len(img))/1024)
	}
	b.op(errors.Join(errs...))
	k := int64(len(benches))
	b.layer("sim.warmup_fast_ns_per_inst", float64(warmNS)/float64(k*int64(cfg.Warmup)))
	b.layer("sim.measure_ns_per_inst", float64(measureNS)/float64(k*int64(cfg.Instructions)))
	b.layer("cpu.host_ns_per_sim_cycle", float64(measureNS)/float64(cycles))
	b.layer("checkpoint.save_ms", median(save))
	b.layer("checkpoint.restore_ms", median(restore))
	b.layer("checkpoint.image_kb", median(image))
	b.simCounters(b.verify.total())
	return nil
}
