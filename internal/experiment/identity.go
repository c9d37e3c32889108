package experiment

// Grid-point identity: every result manifest, baseline memo and daemon
// cache entry is keyed by a content fingerprint of the job's normalized
// configuration. The fingerprint covers exactly the inputs that shape a
// simulation's output — benchmark, factory name, baseline flag, measured
// and warmup windows, seed, warmup fidelity, the comparable cpu.Config
// subset (cpuKey) and the defaulted memsys.Config — so two requests that
// describe the same machine resolve to the same address and one simulation
// serves both. Configs carrying behaviour the fingerprint cannot capture
// (custom predictor instances, retirement callbacks, per-run telemetry)
// are not content-addressable (see addressable) and report ok == false
// everywhere.
//
// JobName is the one exported entry point: the sweep daemon
// (internal/sweepd) schedules and caches on it. Golden tests pin the
// preimage layout and the names it hashes to (identity_test.go): adding,
// removing or reordering a fingerprinted field changes every address at
// once, which must be a deliberate, test-visible event — never a silent
// cache split.

import (
	"fmt"
	"hash/fnv"
	"io"

	"tagprefetch/internal/sim"
)

// JobName returns the content address of a Job: the result-manifest
// filename ("job-<fnv64a>.json") the runner's ResultStore publishes under
// and the distributed claim protocol leases, resolving the baseline
// factory name for baseline jobs. ok is false when the config is not
// content-addressable.
func JobName(j Job) (string, bool) {
	factory := j.Factory.Name
	if j.Baseline {
		factory = sim.NoPrefetch().Name
	}
	return jobFile(j.Bench, factory, j.Baseline, j.Config)
}

// addressable reports whether c carries only configuration a fingerprint
// can capture: no custom predictor instance, retirement callback or
// per-run telemetry. Result manifests and warm images alike key only
// addressable configs.
func addressable(c sim.Config) bool {
	return c.CPU.Predictor == nil && c.CPU.OnLoadRetire == nil && c.Telemetry == nil
}

// pointPreimage builds the fingerprint string the manifest-name hash and
// the runner's baseline memo consume. It is stable across processes and
// hosts: only the normalized configuration participates, never live state.
// The layout is pinned by a golden test (identity_test.go): field order,
// separators and the trailing non-default-fidelity clause must not change
// without bumping every existing manifest name deliberately.
func pointPreimage(bench, factory string, baseline bool, c sim.Config) (string, bool) {
	if !addressable(c) {
		return "", false
	}
	n := c.Normalized()
	s := fmt.Sprintf("%s|%s|%v|%d|%d|%v|%d|%v|%+v|%+v",
		bench, factory, baseline, n.Instructions, n.Warmup, n.NoWarmup, n.Seed,
		n.BaselineWarmup, cpuKeyFor(n.CPU), n.Mem.WithDefaults())
	// The fidelity joins the fingerprint only when non-default, so
	// default-mode addresses match pre-fidelity builds and old result
	// directories keep resolving.
	if n.WarmupFidelity != sim.FidelityFull {
		s += fmt.Sprintf("|fid=%s", n.WarmupFidelity)
	}
	return s, true
}

// jobFile names a job's manifest by hashing its canonical normalized
// configuration; ok is false when the config is not addressable.
func jobFile(bench, factory string, baseline bool, c sim.Config) (string, bool) {
	pre, ok := pointPreimage(bench, factory, baseline, c)
	if !ok {
		return "", false
	}
	h := fnv.New64a()
	io.WriteString(h, pre) //nolint:errcheck // fnv never errors
	return fmt.Sprintf("job-%016x.json", h.Sum64()), true
}
