package experiment

// Grid-point identity: every result manifest and daemon cache entry is
// keyed by a content fingerprint of the job's normalized configuration,
// and the runner's memo by that normalized configuration itself.
// The fingerprint covers exactly the inputs that shape a simulation's
// output — benchmark, factory name, baseline flag, measured
// and warmup windows, seed, warmup fidelity, the core (coreClause plus
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
	"strconv"
	"strings"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/branch"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/sim"
)

// JobName returns the content address of a Job: the result-manifest
// filename ("job-<fnv64a>.json") the runner's ResultStore publishes under
// and the distributed claim protocol leases.
func JobName(j Job) string {
	return jobFile(j.Bench, j.Factory.Name, j.Baseline, j.Config)
}

// appendPreimage appends the fingerprint string the manifest-name hash
// consumes to b, so the hash reads it from a caller's buffer without
// materialising a string. It is stable across processes and hosts: only
// the normalized configuration participates, never live state.
// The layout is pinned by a golden test (identity_test.go): field order,
// separators and the trailing non-default clauses must not change without
// bumping every existing manifest name deliberately.
func appendPreimage(b []byte, bench, factory string, baseline bool, c sim.Config) []byte {
	n := c.Normalized()
	b = append(append(b, bench...), '|')
	b = append(append(b, factory...), '|')
	b = append(strconv.AppendBool(b, baseline), '|')
	b = append(strconv.AppendUint(b, n.Instructions, 10), '|')
	b = append(strconv.AppendUint(b, n.Warmup, 10), '|')
	// The clause once rendered a NoWarmup flag, which normalized to true
	// exactly when the warmup was 0; it keeps those bytes.
	b = append(strconv.AppendBool(b, n.Warmup == 0), '|')
	b = append(strconv.AppendUint(b, n.Seed, 10), '|')
	b = strconv.AppendBool(b, n.BaselineWarmup)
	return appendMachine(b, n.Mem.WithDefaults(), n.WarmupFidelity, n.CPU.Predictor)
}

// coreClause is the core's clause of both fingerprints. Table 1's core is
// fixed (the cpu package's constants), so the clause is a constant too. Its
// bytes are the ones every existing address was hashed with, so manifests,
// warm images and daemon cache entries keep their names; the zeros date
// from when the clause rendered per-run core fields whose zero value
// selected the Table 1 shape.
const coreClause = "|{issueWidth:0 ruuSize:0 lsqSize:0 intALU:0 intMult:0 fpALU:0 fpMult:0 memPorts:0 redirectPenalty:0}"

// appendMachine appends the machine clauses both fingerprints end with:
// coreClause, "|<memsys.Config>" in fmt's %+v layout, then the fields that
// join only when they differ from their defaults — the warmup fidelity
// and the branch predictor — so default-mode addresses match the builds
// that predate those fields and old result directories and warm images
// keep resolving. fid and pred must be normalized.
func appendMachine(b []byte, m memsys.Config, fid sim.Fidelity, pred string) []byte {
	b = appendGeometry(append(b, coreClause+"|{L1D:"...), m.L1D)
	b = appendGeometry(append(b, " L2:"...), m.L2)
	b = appendInt(b, " L1HitLatency:", m.L1HitLatency)
	b = appendInt(b, " L2Latency:", m.L2Latency)
	b = appendInt(b, " MemLatency:", m.MemLatency)
	b = appendInt(b, " L1L2BusBytes:", int64(m.L1L2BusBytes))
	b = appendInt(b, " MemBusBytes:", int64(m.MemBusBytes))
	b = appendInt(b, " MSHRs:", int64(m.MSHRs))
	b = strconv.AppendBool(append(b, " IdealL2:"...), m.IdealL2)
	b = strconv.AppendBool(append(b, " PrefetchBus:"...), m.PrefetchBus)
	b = appendInt(b, " MaxPerMiss:", int64(m.MaxPerMiss))
	b = append(b, '}')
	if fid != sim.FidelityFull {
		b = append(append(b, "|fid="...), fid...)
	}
	if pred != branch.Default {
		b = append(append(b, "|pred="...), pred...)
	}
	return b
}

// appendGeometry appends g in fmt's %+v layout.
func appendGeometry(b []byte, g addr.Geometry) []byte {
	b = appendInt(b, "{sets:", int64(g.Sets()))
	b = appendInt(b, " ways:", int64(g.Ways()))
	b = appendInt(b, " blockBytes:", int64(g.BlockBytes()))
	b = appendInt(b, " blockShift:", int64(g.BlockShift()))
	b = appendInt(b, " indexBits:", int64(g.IndexBits()))
	b = strconv.AppendUint(append(b, " indexMask:"...), g.IndexMask(), 10)
	return append(b, '}')
}

// appendInt appends label and v in decimal.
func appendInt(b []byte, label string, v int64) []byte {
	return strconv.AppendInt(append(b, label...), v, 10)
}

// fingerprintBuf sizes the stack buffer a fingerprint is built in; the
// canonical preimage takes about 360 bytes, and a longer one grows onto
// the heap.
const fingerprintBuf = 512

// fnv64a is the FNV-1a hash of b, as hash/fnv's New64a computes it.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// appendHex16 appends h as 16 lower-case hex digits, fmt's %016x.
func appendHex16(b []byte, h uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[h>>shift&0xf])
	}
	return b
}

// Manifest filenames are jobPrefix + 16 hex digits + jobSuffix.
const jobPrefix, jobSuffix = "job-", ".json"

// jobFile names a job's manifest by hashing its canonical normalized
// configuration.
func jobFile(bench, factory string, baseline bool, c sim.Config) string {
	var buf [fingerprintBuf]byte
	h := fnv64a(appendPreimage(buf[:0], bench, factory, baseline, c))
	return jobPrefix + string(appendHex16(buf[:0], h)) + jobSuffix
}

// IsJobFile reports whether name has the form jobFile gives a result
// manifest, so directory readers pick manifests (and their lease and
// flight-log companions) out from grid.json and checkpoint images.
func IsJobFile(name string) bool {
	return strings.HasPrefix(name, jobPrefix) && strings.HasSuffix(name, jobSuffix)
}
