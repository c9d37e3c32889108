package experiment

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/workload"
)

// Warm-fork sweeps: when a job's config sets sim.Config.BaselineWarmup,
// every grid point's warmup runs under the no-prefetch baseline, so the
// machine state at the warmup/measure boundary is identical across the whole
// grid. The runner therefore warms each benchmark once, checkpoints at the
// boundary, and forks every config from the in-memory image (optionally
// persisted under the checkpoint directory). The forked result is
// bit-identical to running that config cold in the same mode — sim.Machine
// guarantees the restore-and-continue path replays the exact instruction
// loop — so the fork is purely a wall-clock optimisation.

// warmKey identifies one shared warm state: everything that shapes the
// warmup trajectory. The measured-instruction count is deliberately absent —
// the state at the boundary does not depend on how long the measure window
// will be, so grid points with different lengths share a warm image.
type warmKey struct {
	bench  string
	warmup uint64
	seed   uint64
	mem    memsys.Config
	// fidelity and predictor are normalized, so two keys that render the
	// same trailing clauses compare equal.
	fidelity  sim.Fidelity
	predictor string
}

type warmEntry struct {
	once  sync.Once
	image []byte
	err   error
}

// warmKeyFor fingerprints a job's warmup trajectory, reporting ok == false
// when the config is not warm-fork eligible: BaselineWarmup off or no
// warmup window.
func warmKeyFor(bench string, c sim.Config) (warmKey, bool) {
	if !c.BaselineWarmup {
		return warmKey{}, false
	}
	n := c.Normalized()
	if n.Warmup == 0 {
		return warmKey{}, false
	}
	return warmKey{
		bench:     bench,
		warmup:    n.Warmup,
		seed:      n.Seed,
		mem:       n.Mem.WithDefaults(),
		fidelity:  n.WarmupFidelity,
		predictor: n.CPU.Predictor,
	}, true
}

// warmFileName is the on-disk name for a warm checkpoint, keyed by a hash of
// the warmup-trajectory fingerprint.
func warmFileName(key warmKey) string {
	// The non-default clauses join the hash so a fast image can never
	// shadow a full one, nor one predictor's image another's; a default
	// machine keeps the name it had before those fields existed.
	var buf [fingerprintBuf]byte
	b := append(append(buf[:0], key.bench...), '|')
	// A warm image needs a warmup, so the clause that once rendered a
	// NoWarmup flag is the constant it always hashed as.
	b = append(strconv.AppendUint(b, key.warmup, 10), "|false|"...)
	b = strconv.AppendUint(b, key.seed, 10)
	h := fnv64a(appendMachine(b, key.mem, key.fidelity, key.predictor))
	return "warm-" + key.bench + "-" + string(appendHex16(buf[:0], h)) + ".ckpt"
}

// simulate runs one grid point, forking from the benchmark's shared warm
// checkpoint when the config is eligible. An image that fails to restore (a
// stale or foreign one from the checkpoint directory) falls back to the
// cold run, which produces the identical result by construction. A
// miss-stream job runs its pass cold. It is the package's one way into the
// simulator.
func (r *Runner) simulate(bench string, f sim.Factory, cfg sim.Config) sim.Result {
	r.simulated.Add(1)
	if f.Name == missStreamLabel {
		return missStream(bench, cfg)
	}
	key, ok := warmKeyFor(bench, cfg)
	if !ok {
		return sim.MustRun(bench, f, cfg)
	}
	img, err := r.warmImage(key, bench, cfg)
	if err != nil {
		return sim.MustRun(bench, f, cfg)
	}
	spec, err := workload.Spec2000(bench)
	if err != nil {
		panic(err) // unknown benchmark: preserve MustRun semantics
	}
	m, err := sim.NewMachine(spec, f, cfg)
	if err != nil {
		panic(err)
	}
	if err := m.RestoreImage(img); err != nil {
		return sim.MustRun(bench, f, cfg)
	}
	r.warmForks.Add(1)
	return m.Run()
}

// warmImage returns the boundary checkpoint for key, simulating the warmup
// (once per key, concurrent requests coalesce) or loading it from the
// checkpoint directory when a previous run persisted it there.
func (r *Runner) warmImage(key warmKey, bench string, cfg sim.Config) ([]byte, error) {
	r.warmMu.Lock()
	e := r.warm[key]
	if e == nil {
		e = &warmEntry{}
		r.warm[key] = e
	}
	r.warmMu.Unlock()
	e.once.Do(func() {
		path := ""
		if r.checkpointDir != "" {
			path = filepath.Join(r.checkpointDir, warmFileName(key))
			if data, err := checkpoint.ReadFile(path); err == nil {
				// Images on shared storage may come from another host
				// running a different simulator build: validate the
				// format version and CRC before trusting one. A stale or
				// foreign image is ignored, re-warmed, and overwritten.
				if checkpoint.Validate(data) == nil {
					e.image = data
					return
				}
			}
		}
		spec, err := workload.Spec2000(bench)
		if err != nil {
			e.err = err
			return
		}
		m, err := sim.NewMachine(spec, sim.NoPrefetch(), cfg)
		if err != nil {
			e.err = err
			return
		}
		m.RunTo(key.warmup)
		e.image, e.err = m.Checkpoint()
		if e.err != nil {
			return
		}
		r.warmWarmups.Add(1)
		if path != "" {
			// Best-effort persistence: the in-memory image is authoritative,
			// and checkpoint.WriteFile renames atomically so a killed sweep
			// never leaves a truncated image behind.
			if err := os.MkdirAll(r.checkpointDir, 0o755); err == nil {
				_ = checkpoint.WriteFile(path, e.image)
			}
		}
	})
	return e.image, e.err
}
