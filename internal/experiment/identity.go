package experiment

// Grid-point identity: every result manifest and daemon cache entry is
// keyed by a content fingerprint of the job's normalized configuration,
// and the runner's baseline memo by that normalized configuration itself.
// The fingerprint covers exactly the inputs that shape a simulation's
// output — benchmark, factory name, baseline flag, measured
// and warmup windows, seed, warmup fidelity, the cpu.Config (cpuKey plus
// the branch predictor's name) and the defaulted memsys.Config — so two
// requests that describe the same machine resolve to the same address and
// one simulation serves both. sim.Config is a plain value, so every config
// has an address.
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
	"strings"

	"tagprefetch/internal/branch"
	"tagprefetch/internal/sim"
)

// JobName returns the content address of a Job: the result-manifest
// filename ("job-<fnv64a>.json") the runner's ResultStore publishes under
// and the distributed claim protocol leases, resolving the baseline
// factory name for baseline jobs.
func JobName(j Job) string {
	factory := j.Factory.Name
	if j.Baseline {
		factory = sim.NoPrefetch().Name
	}
	return jobFile(j.Bench, factory, j.Baseline, j.Config)
}

// pointPreimage builds the fingerprint string the manifest-name hash
// consumes. It is stable across processes and hosts: only the normalized
// configuration participates, never live state.
// The layout is pinned by a golden test (identity_test.go): field order,
// separators and the trailing non-default clauses must not change without
// bumping every existing manifest name deliberately.
func pointPreimage(bench, factory string, baseline bool, c sim.Config) string {
	var b strings.Builder
	writePreimage(&b, bench, factory, baseline, c)
	return b.String()
}

// writePreimage writes pointPreimage's string to w, so the manifest-name
// hash consumes it without materialising it.
func writePreimage(w io.Writer, bench, factory string, baseline bool, c sim.Config) {
	n := c.Normalized()
	fmt.Fprintf(w, "%s|%s|%v|%d|%d|%v|%d|%v|%+v|%+v", //nolint:errcheck // callers write to a hash or a strings.Builder
		bench, factory, baseline, n.Instructions, n.Warmup, n.NoWarmup, n.Seed,
		n.BaselineWarmup, cpuKeyFor(n.CPU), n.Mem.WithDefaults())
	io.WriteString(w, nonDefaultClauses(n)) //nolint:errcheck // as above
}

// nonDefaultClauses renders the fingerprint fields that join a preimage
// only when they differ from their defaults — the warmup fidelity and the
// branch predictor — so default-mode addresses match the builds that
// predate those fields and old result directories and warm images keep
// resolving. n must be normalized.
func nonDefaultClauses(n sim.Config) string {
	s := ""
	if n.WarmupFidelity != sim.FidelityFull {
		s += fmt.Sprintf("|fid=%s", n.WarmupFidelity)
	}
	if n.CPU.Predictor != branch.Default {
		s += fmt.Sprintf("|pred=%s", n.CPU.Predictor)
	}
	return s
}

// Manifest filenames are jobPrefix + 16 hex digits + jobSuffix.
const jobPrefix, jobSuffix = "job-", ".json"

// jobFile names a job's manifest by hashing its canonical normalized
// configuration.
func jobFile(bench, factory string, baseline bool, c sim.Config) string {
	h := fnv.New64a()
	writePreimage(h, bench, factory, baseline, c)
	return fmt.Sprintf(jobPrefix+"%016x"+jobSuffix, h.Sum64())
}

// IsJobFile reports whether name has the form jobFile gives a result
// manifest, so directory readers pick manifests (and their lease and
// flight-log companions) out from grid.json and checkpoint images.
func IsJobFile(name string) bool {
	return strings.HasPrefix(name, jobPrefix) && strings.HasSuffix(name, jobSuffix)
}
