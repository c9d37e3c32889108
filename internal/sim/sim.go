// Package sim couples the out-of-order core, the memory hierarchy, a
// prefetcher and a workload model into one runnable system — the simulated
// machine of Table 1 — and provides the named prefetcher configurations the
// paper evaluates (TCP-8K, TCP-8M, Hybrid-8K, DBCP-2M) plus the classic
// baselines used by the ablation benches.
package sim

import (
	"fmt"
	"strings"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/branch"
	"tagprefetch/internal/cache"
	"tagprefetch/internal/core"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/dbcp"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
	"tagprefetch/internal/workload"
)

// Config parameterises one simulation run. Zero fields take Table 1
// defaults.
type Config struct {
	CPU cpu.Config
	Mem memsys.Config

	// Instructions is the number of measured dynamic instructions
	// (default 1e6). The paper measures 2e9 per benchmark; our synthetic
	// workloads are stationary, so shapes stabilise much earlier.
	Instructions uint64
	// Warmup instructions run before measurement begins — the analogue of
	// the paper's 1-billion-instruction skip (default Instructions/2).
	// Set negative-like behaviour by NoWarmup.
	Warmup uint64
	// NoWarmup disables the warmup default (measure from a cold machine).
	NoWarmup bool
	// Seed drives all pseudo-random workload choices (default 1).
	Seed uint64

	// WarmupFidelity selects the execution engine for the warmup window:
	// FidelityFull (the default, and the zero value) runs the cycle-accurate
	// pipeline end to end, preserving every previously recorded result
	// byte-for-byte; FidelityFast runs the warmup on the functional
	// fast-forward engine — exact per-access cache, MSHR-occupancy,
	// branch-predictor and prefetcher training with no per-cycle pipeline
	// bookkeeping — and switches to the cycle-accurate engine at the
	// warmup/measure boundary. docs/FASTFORWARD.md documents precisely
	// which measured-window counters this preserves, to what tolerance,
	// and which are fidelity-dependent.
	WarmupFidelity Fidelity

	// BaselineWarmup runs the warmup window under the no-prefetch baseline
	// — the prefetcher, dead-block predictor and criticality trainer are
	// parked and attach at the warmup/measure boundary. Every config then
	// shares one bit-identical warm state, so a sweep can warm a benchmark
	// once, checkpoint at the boundary, and fork each grid point from the
	// snapshot with results identical to running it cold in this mode.
	BaselineWarmup bool
}

// Normalized resolves every defaulted field to its effective value (the
// config a Machine actually simulates), so that two configs describing the
// same machine compare equal — the experiment runner keys its baseline
// cache on this.
func (c Config) Normalized() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.CPU.Predictor == "" {
		c.CPU.Predictor = branch.Default
	}
	if c.Instructions == 0 {
		c.Instructions = 1_000_000
	}
	if c.Warmup == 0 && !c.NoWarmup {
		c.Warmup = c.Instructions / 2
	}
	if c.NoWarmup {
		c.Warmup = 0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.WarmupFidelity == "" {
		c.WarmupFidelity = FidelityFull
	}
	return c
}

// Fidelity names an execution engine for the warmup phase of a run.
type Fidelity string

const (
	// FidelityFull runs the warmup on the cycle-accurate out-of-order
	// pipeline, exactly as the measured window runs.
	FidelityFull Fidelity = "full"
	// FidelityFast runs the warmup on the functional fast-forward engine
	// (internal/cpu's atomic mode; see docs/FASTFORWARD.md).
	FidelityFast Fidelity = "fast"
)

// ParseFidelity resolves a -warmup-fidelity flag value. The empty string
// selects FidelityFull, mirroring Config's zero-value default.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", FidelityFull:
		return FidelityFull, nil
	case FidelityFast:
		return FidelityFast, nil
	}
	return "", fmt.Errorf("unknown warmup fidelity %q (want %q or %q)", s, FidelityFull, FidelityFast)
}

// Factory names and builds a prefetcher configuration for a given L1.
type Factory struct {
	// Name labels rows in experiment tables ("tcp-8K", "dbcp-2M", ...).
	Name string
	// Build constructs the prefetcher. hybrid reports whether the system
	// must attach a dead-block predictor and dedicated prefetch bus
	// (Section 5.2.2's Hybrid scheme).
	Build func(l1 addr.Geometry) (pf prefetch.Prefetcher, hybrid bool)
	// CriticalFilter gates prefetch issue behind the PC-criticality
	// predictor trained by the core at load retirement (the Section 6
	// critical-miss filter).
	CriticalFilter bool
	// AtL2 places the prefetcher at the L2/memory boundary instead of the
	// paper's L1/L2 placement: Build receives the L2 geometry and the
	// prefetcher observes demand L2 misses (placement ablation A8).
	AtL2 bool
}

// AtL2Boundary re-homes a factory to the L2/memory boundary (ablation A8).
func AtL2Boundary(inner Factory) Factory {
	inner.Name += "@l2"
	inner.AtL2 = true
	return inner
}

// WithCriticalFilter wraps a factory so its prefetches are gated by a
// critical-miss predictor (Section 6 future work; ablation A6).
func WithCriticalFilter(inner Factory) Factory {
	inner.Name += "+cf"
	inner.CriticalFilter = true
	return inner
}

// NoPrefetch is the no-prefetcher baseline factory.
func NoPrefetch() Factory {
	return Factory{Name: "none", Build: func(addr.Geometry) (prefetch.Prefetcher, bool) {
		return prefetch.None{}, false
	}}
}

// TCPWithPHT builds a TCP whose PHT has the given byte budget (at the
// paper's 4-byte entries, 8-way) and miss-index bits. toL1 selects the
// hybrid scheme.
func TCPWithPHT(phtBytes, indexBits int, toL1 bool) Factory {
	sets := phtBytes / (8 * 4)
	if sets < 1 {
		sets = 1
	}
	// The PHT is indexed by masking, so the set count must be a power of
	// two; round a ragged byte budget down instead of letting core.New
	// panic on it.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	name := fmt.Sprintf("tcp-%s", sizeLabel(phtBytes))
	if indexBits > 0 {
		name = fmt.Sprintf("%s/n%d", name, indexBits)
	}
	if toL1 {
		name = fmt.Sprintf("hybrid-%s", sizeLabel(phtBytes))
	}
	return Factory{Name: name, Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		cfg := core.Config{L1: l1, HistoryDepth: 2, PHTSets: sets, PHTWays: 8,
			IndexBits: indexBits, PrefetchToL1: toL1}
		return core.New(cfg), toL1
	}}
}

func sizeLabel(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dK", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}

// TCP8K is the paper's realistic design point (Figure 11).
func TCP8K() Factory { return TCPWithPHT(8*1024, 0, false) }

// TCP8M is the paper's idealised private-history point (Figure 11).
func TCP8M() Factory {
	f := TCPWithPHT(8*1024*1024, 10, false)
	f.Name = "tcp-8M"
	return f
}

// Hybrid8K is TCP-8K prefetching into L1 gated by the timekeeping
// dead-block predictor over a dedicated prefetch bus (Figure 14).
func Hybrid8K() Factory { return TCPWithPHT(8*1024, 0, true) }

// DBCP2M is the Lai et al. dead-block correlating prefetcher with a 2 MB
// table (Figure 11's comparison point).
func DBCP2M() Factory {
	return Factory{Name: "dbcp-2M", Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		return dbcp.New(dbcp.DBCP2M(l1)), false
	}}
}

// Stride is the Baer-Chen reference-prediction-table baseline.
func Stride() Factory {
	return Factory{Name: "stride", Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		return prefetch.NewStride(l1, 9, 2), false
	}}
}

// StreamBuffers is the Jouppi stream-buffer baseline.
func StreamBuffers() Factory {
	return Factory{Name: "stream", Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		return prefetch.NewStreamBuffers(l1, 8, 4), false
	}}
}

// Markov is the Joseph-Grunwald Markov-prefetcher baseline (1 MB-class).
func Markov() Factory {
	return Factory{Name: "markov", Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		return prefetch.NewMarkov(15, 4, 2), false
	}}
}

// GHB is the Nesbit-Smith global-history-buffer prefetcher (PC/DC), the
// canonical correlation-prefetcher organisation that followed the paper.
func GHB() Factory {
	return Factory{Name: "ghb-pc/dc", Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		return prefetch.NewGHB(l1, 512, 2), false
	}}
}

// NextLine is the degree-1 next-line baseline.
func NextLine() Factory {
	return Factory{Name: "nextline", Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		return prefetch.NewNextLine(l1, 1), false
	}}
}

// Scheme is one named prefetcher configuration: the name a command line or
// the library's Prefetcher type selects it by, and its one-line doc.
type Scheme struct {
	Name    string
	Doc     string
	Factory func() Factory
}

// Schemes lists the named configurations in the order help texts show
// them. It is the one place a scheme is named; LookupScheme resolves it.
var Schemes = []Scheme{
	{"none", "no prefetching (baseline)", NoPrefetch},
	{"tcp8k", "TCP, 8 KB shared PHT (the paper's design point)", TCP8K},
	{"tcp8m", "TCP, 8 MB private-per-set PHT (idealised)", TCP8M},
	{"hybrid8k", "TCP-8K + dead-block-gated L1 promotion", Hybrid8K},
	{"dbcp2m", "dead-block correlating prefetcher, 2 MB table", DBCP2M},
	{"stride", "Baer-Chen reference prediction table", Stride},
	{"stream", "Jouppi stream buffers", StreamBuffers},
	{"markov", "Joseph-Grunwald Markov prefetcher", Markov},
	{"ghb", "Nesbit-Smith global history buffer (PC/DC)", GHB},
	{"nextline", "degree-1 next-line", NextLine},
}

// LookupScheme resolves a scheme name, ignoring letter case. The empty
// name means "none" and "dbcp" means "dbcp2m". An unknown name returns an
// error listing the table.
func LookupScheme(name string) (Factory, error) {
	key := strings.ToLower(name)
	switch key {
	case "":
		key = "none"
	case "dbcp":
		key = "dbcp2m"
	}
	names := make([]string, len(Schemes))
	for i, s := range Schemes {
		if s.Name == key {
			return s.Factory(), nil
		}
		names[i] = s.Name
	}
	return Factory{}, fmt.Errorf("unknown prefetcher %q (want %s)", name, strings.Join(names, " | "))
}

// Custom wraps an explicit TCP configuration.
func Custom(name string, cfg core.Config) Factory {
	return Factory{Name: name, Build: func(l1 addr.Geometry) (prefetch.Prefetcher, bool) {
		cfg.L1 = l1
		return core.New(cfg), cfg.PrefetchToL1
	}}
}

// Result summarises one simulation. Every counter group (CPU, Mem, L1, L2)
// covers the measured window only: warmup activity is snapshotted at the
// phase boundary and subtracted.
type Result struct {
	Benchmark  string
	Prefetcher string

	CPU cpu.Result
	Mem memsys.Stats
	L1  cache.Stats
	L2  cache.Stats

	PrefetcherStorageBits uint64
}

// IPC is shorthand for the achieved instructions per cycle.
func (r Result) IPC() float64 { return r.CPU.IPC }

// Run simulates the named SPEC2000 model with the given prefetcher factory.
// The config is validated; a bad field returns a *ConfigError instead of
// panicking during construction.
func Run(bench string, f Factory, cfg Config) (Result, error) {
	spec, err := workload.Spec2000(bench)
	if err != nil {
		return Result{}, err
	}
	m, err := NewMachine(spec, f, cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(), nil
}

// MustRun is Run but panics on unknown benchmarks (experiment tables).
func MustRun(bench string, f Factory, cfg Config) Result {
	r, err := Run(bench, f, cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// missObserver is the prefetcher-shaped observer ObserveMisses attaches: it
// issues nothing and hands each armed miss to fn. It is not prefetch.None
// itself, so the memory system does not elide its OnMiss calls.
type missObserver struct {
	prefetch.None
	fn    func(trace.Miss) // host-side observer callback, outside the simulated state
	armed bool             // observer state, outside the simulated state; ObserveMisses never checkpoints
}

func (t *missObserver) OnMiss(m trace.Miss) []prefetch.Request {
	if t.armed {
		t.fn(m)
	}
	return nil
}

// ObserveMisses runs the named SPEC2000 model without prefetching and
// hands fn every L1 data-cache miss of the measured window, in order, as a
// prefetcher at the L1/L2 boundary sees it (MSHR merges never reach it) —
// the miss stream Section 3 of the paper profiles. With a warmup the tap
// arms at the warmup/measure boundary; with NoWarmup it delivers from
// instruction 0. The machine, its warmup engine and the boundary are those
// of every other run, so cfg's fidelity applies unchanged, and a non-nil
// tel observes the run as Machine.Observe describes.
func ObserveMisses(bench string, cfg Config, tel *telemetry.Run, fn func(trace.Miss)) (Result, error) {
	spec, err := workload.Spec2000(bench)
	if err != nil {
		return Result{}, err
	}
	tap := &missObserver{fn: fn}
	f := NoPrefetch()
	f.Build = func(addr.Geometry) (prefetch.Prefetcher, bool) { return tap, false }
	m, err := NewMachine(spec, f, cfg)
	if err != nil {
		return Result{}, err
	}
	m.Observe(tel)
	m.RunTo(m.cfg.Warmup)
	tap.armed = true
	return m.Run(), nil
}

// exportRunGauges publishes the measured-window headline numbers. The
// registry counters themselves are cumulative over warmup+measure; these
// gauges are the warmup-subtracted figures the paper reports.
func exportRunGauges(reg *telemetry.Registry, cpuRes cpu.Result, ms memsys.Stats) {
	reg.Gauge("run.ipc", "measured-window IPC").Set(cpuRes.IPC)
	if ms.Accesses > 0 {
		reg.Gauge("run.l1_miss_rate", "measured-window L1 demand miss rate").
			Set(float64(ms.L1Misses) / float64(ms.Accesses))
	}
	if orig := ms.PrefetchedOriginal + ms.NonPrefetchedOriginal; orig > 0 {
		reg.Gauge("run.prefetch_coverage",
			"fraction of demand L2 traffic served by prefetched lines (measured window)").
			Set(float64(ms.PrefetchedOriginal) / float64(orig))
	}
	if ms.PrefetchFills > 0 {
		reg.Gauge("run.prefetch_accuracy",
			"prefetched lines later demanded per prefetch fill (measured window)").
			Set(float64(ms.PrefetchedOriginal) / float64(ms.PrefetchFills))
	}
}

// Improvement returns the relative IPC improvement of r over base, e.g.
// 0.14 for a 14% speedup (how the paper reports Figures 11, 13, 14).
func Improvement(r, base Result) float64 {
	if base.CPU.IPC == 0 {
		return 0
	}
	return r.CPU.IPC/base.CPU.IPC - 1
}
