// Package tagprefetch is the public API of a from-scratch reproduction of
// "TCP: Tag Correlating Prefetchers" (Hu, Kaxiras, Martonosi — HPCA 2003).
//
// The package wraps a complete evaluation stack: a cycle-level out-of-order
// core (Table 1's machine), a contention-aware L1/L2/memory hierarchy, the
// TCP prefetcher itself (a two-level THT/PHT structure indexed by truncated
// tag addition), the DBCP, stride, stream-buffer and Markov baselines, the
// timekeeping dead-block predictor used by the hybrid L1 scheme, synthetic
// SPEC CPU2000 workload models, a Section 3 locality profiler, and one
// experiment per paper figure.
//
// Quick start:
//
//	r, err := tagprefetch.Run("mcf", tagprefetch.TCP8M, tagprefetch.RunConfig{})
//	base, _ := tagprefetch.Run("mcf", tagprefetch.None, tagprefetch.RunConfig{})
//	fmt.Printf("TCP-8M speeds up mcf by %.1f%%\n", (r.IPC()/base.IPC()-1)*100)
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory.
package tagprefetch

import (
	"fmt"

	"tagprefetch/internal/core"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/workload"
)

// Prefetcher names a prefetcher configuration evaluated in the paper.
type Prefetcher string

// The prefetcher configurations of the paper plus classic baselines.
const (
	None     Prefetcher = "none"     // no prefetching (baseline)
	TCP8K    Prefetcher = "tcp8k"    // TCP, 8 KB shared PHT (the paper's design point)
	TCP8M    Prefetcher = "tcp8m"    // TCP, 8 MB private-per-set PHT (idealised)
	Hybrid8K Prefetcher = "hybrid8k" // TCP-8K + dead-block-gated L1 promotion
	DBCP2M   Prefetcher = "dbcp2m"   // dead-block correlating prefetcher, 2 MB table
	Stride   Prefetcher = "stride"   // Baer-Chen reference prediction table
	Stream   Prefetcher = "stream"   // Jouppi stream buffers
	Markov   Prefetcher = "markov"   // Joseph-Grunwald Markov prefetcher
	NextLine Prefetcher = "nextline" // degree-1 next-line
	GHB      Prefetcher = "ghb"      // Nesbit-Smith global history buffer (PC/DC)
)

// Factory resolves a Prefetcher name to its simulator factory through
// the scheme table (sim.LookupScheme): letter case is ignored, "" means
// None and "dbcp" means DBCP2M. Unknown names return an error.
func (p Prefetcher) Factory() (sim.Factory, error) {
	f, err := sim.LookupScheme(string(p))
	if err != nil {
		return f, fmt.Errorf("tagprefetch: %w", err)
	}
	return f, nil
}

// RunConfig controls one simulation. The zero value uses the paper's
// Table 1 machine, 1M measured instructions after 500K warmup.
type RunConfig struct {
	// Instructions measured (default 1e6).
	Instructions uint64
	// Warmup instructions before measurement (default Instructions/2).
	Warmup uint64
	// Seed for the deterministic workload models (default 1).
	Seed uint64
	// IdealL2 makes every L2 access hit (the Figure 1 study).
	IdealL2 bool
	// PHTBytes and IndexBits build a custom TCP instead of a named
	// Prefetcher when CustomTCP is true.
	CustomTCP bool
	PHTBytes  int
	IndexBits int
}

// Result is the outcome of one simulation run; see sim.Result for fields.
type Result = sim.Result

// Summary is the Section 3 locality characterisation of a miss stream.
type Summary = profiler.Summary

// TCPConfig exposes the full TCP parameter space (internal/core.Config)
// for research use beyond the named configurations.
type TCPConfig = core.Config

// Options scales the experiment harness; see internal/experiment.
type Options = experiment.Options

// Table and Series are the printable experiment outputs.
type (
	Table  = stats.Table
	Series = stats.Series
)

// Benchmarks returns the 26 SPEC CPU2000 workload models in the paper's
// figure order (ascending ideal-L2 potential).
func Benchmarks() []string { return workload.Names() }

// Run simulates one benchmark with the named prefetcher.
func Run(bench string, p Prefetcher, cfg RunConfig) (Result, error) {
	var f sim.Factory
	var err error
	if cfg.CustomTCP {
		f = sim.TCPWithPHT(cfg.PHTBytes, cfg.IndexBits, false)
	} else if f, err = p.Factory(); err != nil {
		return Result{}, err
	}
	sc := sim.Config{
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		Seed:         cfg.Seed,
		Mem:          memsys.Config{IdealL2: cfg.IdealL2},
	}
	return sim.Run(bench, f, sc)
}

// RunTCP simulates one benchmark with a fully custom TCP configuration.
func RunTCP(bench string, tcp TCPConfig, cfg RunConfig) (Result, error) {
	f := sim.Custom("tcp-custom", tcp)
	sc := sim.Config{
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		Seed:         cfg.Seed,
		Mem:          memsys.Config{IdealL2: cfg.IdealL2},
	}
	return sim.Run(bench, f, sc)
}

// Improvement returns r's relative IPC improvement over base (0.14 = 14%).
func Improvement(r, base Result) float64 { return sim.Improvement(r, base) }

// Profile runs one benchmark without prefetching and returns the Section 3
// locality summary of its L1 data-cache miss stream.
func Profile(bench string, cfg RunConfig) (Summary, error) {
	return experiment.ProfileBench(bench, experiment.Options{
		Instructions: cfg.Instructions,
		Warmup:       cfg.Warmup,
		Seed:         cfg.Seed,
	})
}

// Experiments re-exported from the harness; each regenerates one paper
// table or figure (see DESIGN.md §4 for the index).
var (
	Table1         = experiment.Table1
	Fig01IdealL2   = experiment.Fig01IdealL2
	Fig11IPC       = experiment.Fig11IPC
	Fig12Traffic   = experiment.Fig12Traffic
	Fig13PHTSize   = experiment.Fig13PHTSize
	Fig13IndexBits = experiment.Fig13IndexBits
	Fig14Hybrid    = experiment.Fig14Hybrid
	ProfileAll     = experiment.ProfileAll
	Fig02TagStats  = experiment.Fig02TagStats
	Fig03AddrStats = experiment.Fig03AddrStats
	Fig04TagSpread = experiment.Fig04TagSpread
	Fig05SeqRatio  = experiment.Fig05SeqRatio
	Fig06SeqStats  = experiment.Fig06SeqStats
	Fig07SeqSpread = experiment.Fig07SeqSpread
	Fig15Strided   = experiment.Fig15Strided
)
