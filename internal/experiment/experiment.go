// Package experiment regenerates every table and figure of the paper's
// evaluation: the machine configuration (Table 1), the ideal-L2 potential
// study (Figure 1), the tag/address/sequence locality characterisation
// (Figures 2-7 and 15), the TCP-vs-DBCP IPC comparison (Figure 11), the L2
// traffic breakdown (Figure 12), the PHT design-space sweeps (Figure 13),
// and the hybrid L1-prefetching comparison (Figure 14) — plus the ablation
// studies listed in DESIGN.md §4.
//
// Each experiment returns printable tables/series; EXPERIMENTS.md records a
// reference run against the paper's numbers.
package experiment

import (
	"fmt"
	"slices"

	"tagprefetch/internal/cpu"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/workload"
)

// Options control experiment scale. The zero value gives the reference
// configuration used in EXPERIMENTS.md.
type Options struct {
	// Instructions measured per run (default 1e6).
	Instructions uint64
	// Warmup instructions before measurement (default 2e6 — long enough
	// for every workload model's streams to complete at least one pass;
	// the analogue of the paper's 1-billion-instruction skip).
	Warmup uint64
	// Seed for the workload models (default 1).
	Seed uint64
	// Benches restricts the benchmark set (default: all 26 in paper order).
	Benches []string
	// Jobs is the simulation worker-pool width used when Runner is nil:
	// 0 (default) uses all available cores, 1 runs strictly serially.
	Jobs int
	// WarmupFidelity selects the engine used for the warmup window
	// (sim.Config.WarmupFidelity): sim.FidelityFull (the default, and what
	// the zero value means) runs it cycle-accurately; sim.FidelityFast
	// fast-forwards it functionally (docs/FASTFORWARD.md).
	WarmupFidelity sim.Fidelity
	// BaselineWarmup runs every grid point's warmup under the no-prefetch
	// baseline (sim.Config.BaselineWarmup), which lets the runner warm each
	// benchmark once, checkpoint at the warmup/measure boundary, and fork
	// every config from the snapshot — bit-identical to cold runs in the
	// same mode, at a fraction of the wall-clock.
	BaselineWarmup bool
	// Runner executes the experiment's simulation jobs. Leave nil to give
	// each experiment its own Jobs-wide pool; commands share one Runner
	// across figures so the memoised no-prefetch baselines are simulated
	// once per invocation (see NewRunner).
	Runner *Runner
}

func (o Options) withDefaults() Options {
	if o.Instructions == 0 {
		o.Instructions = 1_000_000
	}
	if o.Warmup == 0 {
		o.Warmup = 2_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Benches) == 0 {
		o.Benches = workload.Names()
	}
	if o.Runner == nil {
		o.Runner = NewRunner(o.Jobs)
	}
	return o
}

// BenchError reports a benchmark name that workload.Names() lacks.
type BenchError struct{ Name string }

func (e *BenchError) Error() string { return fmt.Sprintf("unknown benchmark %q", e.Name) }

// Validate checks o before a grid is planned or its checkpoint directory
// touched: the window as sim.Config.Validate judges every job's config (a
// *sim.ConfigError), then every bench name (a *BenchError).
func (o Options) Validate() error {
	if err := o.withDefaults().simConfig().Validate(); err != nil {
		return err
	}
	for _, b := range o.Benches {
		if !slices.Contains(workload.Names(), b) {
			return &BenchError{Name: b}
		}
	}
	return nil
}

func (o Options) simConfig() sim.Config {
	return sim.Config{Instructions: o.Instructions, Warmup: o.Warmup, Seed: o.Seed,
		WarmupFidelity: o.WarmupFidelity, BaselineWarmup: o.BaselineWarmup}
}

// Table1 renders the simulated machine configuration (paper Table 1).
func Table1() *stats.Table {
	mc := memsys.DefaultConfig()
	t := stats.NewTable("Table 1: configuration of simulated processor", "parameter", "value")
	t.AddRow("instruction window", fmt.Sprintf("%d-RUU, %d-LSQ", cpu.RUUSize, cpu.LSQSize))
	t.AddRow("issue width", fmt.Sprintf("%d instructions per cycle", cpu.IssueWidth))
	t.AddRow("functional units", fmt.Sprintf("%d IntALU, %d IntMult/Div, %d FPALU, %d FPMult/Div, %d Load/Store",
		cpu.IntALUs, cpu.IntMults, cpu.FPALUs, cpu.FPMults, cpu.MemPorts))
	t.AddRow("L1 dcache", fmt.Sprintf("%dKB, %d-way, %dB blocks, %d MSHRs",
		mc.L1D.SizeBytes()/1024, mc.L1D.Ways(), mc.L1D.BlockBytes(), mc.MSHRs))
	t.AddRow("L1/L2 bus", fmt.Sprintf("%d-byte wide, core clock", mc.L1L2BusBytes))
	t.AddRow("L2", fmt.Sprintf("%dMB, %d-way LRU, %dB blocks, %d-cycle latency",
		mc.L2.SizeBytes()>>20, mc.L2.Ways(), mc.L2.BlockBytes(), mc.L2Latency))
	t.AddRow("memory latency", fmt.Sprintf("%d cycles", mc.MemLatency))
	return t
}

// runPair submits the no-prefetch baseline and every factory over all
// benches through the runner, returning the baseline results in bench
// order and the factory results as grid[bench][factory]. It is the runner's
// seam: every baseline-relative figure and ablation funnels through here,
// so all of a figure's simulation points fan out across one worker pool and
// points another figure already ran hit the runner's memo.
func runPair(o Options, cfg sim.Config, fs ...sim.Factory) (base []sim.Result, grid [][]sim.Result) {
	jobs := append(BaselineJobs(o.Benches, cfg), GridJobs(o.Benches, fs, cfg)...)
	res := o.Runner.Map(jobs)
	base, rest := res[:len(o.Benches)], res[len(o.Benches):]
	grid = make([][]sim.Result, len(o.Benches))
	for bi := range o.Benches {
		grid[bi] = rest[bi*len(fs) : (bi+1)*len(fs)]
	}
	return base, grid
}

// improvementTable renders the standard baseline-relative figure layout: one
// row per bench with the base IPC and each factory's improvement, closed by
// a geomean row.
func improvementTable(title string, o Options, cfg sim.Config, fs ...sim.Factory) *stats.Table {
	headers := append([]string{"bench", "base IPC"}, factoryNames(fs)...)
	t := stats.NewTable(title, headers...)
	base, grid := runPair(o, cfg, fs...)
	sums := make([][]float64, len(fs))
	for bi, b := range o.Benches {
		row := []string{b, fmt.Sprintf("%.3f", base[bi].IPC())}
		for fi := range fs {
			imp := sim.Improvement(grid[bi][fi], base[bi])
			sums[fi] = append(sums[fi], 1+imp)
			row = append(row, stats.Percent(imp))
		}
		t.AddRow(row...)
	}
	grow := []string{"geomean", ""}
	for fi := range fs {
		grow = append(grow, stats.Percent(stats.Geomean(sums[fi])-1))
	}
	t.AddRow(grow...)
	return t
}

// Fig01IdealL2 reproduces Figure 1: per-benchmark IPC improvement with an
// ideal L2 data cache (every L2 access hits), sorted in the paper's order.
func Fig01IdealL2(o Options) *stats.Table {
	o = o.withDefaults()
	cfg := o.simConfig()
	idealCfg := cfg
	idealCfg.Mem.IdealL2 = true

	// Both machine variants are no-prefetch baselines; submit them as one
	// batch so the pool interleaves them, and both sides stay memoised.
	jobs := append(BaselineJobs(o.Benches, cfg), BaselineJobs(o.Benches, idealCfg)...)
	res := o.Runner.Map(jobs)
	base, ideal := res[:len(o.Benches)], res[len(o.Benches):]

	t := stats.NewTable("Figure 1: potential IPC improvement with an ideal L2 data cache",
		"bench", "base IPC", "ideal IPC", "improvement")
	var imps []float64
	for bi, b := range o.Benches {
		imp := sim.Improvement(ideal[bi], base[bi])
		imps = append(imps, 1+imp)
		t.AddRow(b, fmt.Sprintf("%.3f", base[bi].IPC()),
			fmt.Sprintf("%.3f", ideal[bi].IPC()), stats.Percent(imp))
	}
	t.AddRow("geomean", "", "", stats.Percent(stats.Geomean(imps)-1))
	return t
}

// Fig11IPC reproduces Figure 11: IPC improvement of TCP-8K and TCP-8M vs a
// DBCP with a 2 MB correlation table, over the no-prefetch baseline.
func Fig11IPC(o Options) *stats.Table {
	o = o.withDefaults()
	return improvementTable("Figure 11: IPC improvement, DBCP-2M vs TCP-8K vs TCP-8M",
		o, o.simConfig(), sim.DBCP2M(), sim.TCP8K(), sim.TCP8M())
}

// Fig12Traffic reproduces Figure 12: the composition of L2 accesses —
// prefetched original, non-prefetched original, and prefetched extra — for
// TCP-8K and TCP-8M, normalised to the original (no-prefetch) L2 accesses.
func Fig12Traffic(o Options) *stats.Table {
	o = o.withDefaults()
	cfg := o.simConfig()

	t := stats.NewTable("Figure 12: L2 access categories (normalised to original L2 accesses)",
		"bench", "config", "prefetched original", "non-prefetched original", "prefetched extra")
	// Factory-major to match the table's row order.
	var jobs []Job
	for _, f := range []sim.Factory{sim.TCP8K(), sim.TCP8M()} {
		for _, b := range o.Benches {
			jobs = append(jobs, Job{Bench: b, Factory: f, Config: cfg})
		}
	}
	for i, r := range o.Runner.Map(jobs) {
		den := float64(r.Mem.L2Demand)
		if den == 0 {
			den = 1
		}
		t.AddRow(jobs[i].Bench, jobs[i].Factory.Name,
			stats.Percent(float64(r.Mem.PrefetchedOriginal)/den),
			stats.Percent(float64(r.Mem.NonPrefetchedOriginal)/den),
			stats.Percent(float64(r.Mem.PrefetchedExtra)/den))
	}
	return t
}

// PHTSizes is the Figure 13 (top) sweep: 2 KB to 8 MB.
var PHTSizes = []int{2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20}

// Fig13PHTSize reproduces Figure 13 (top): mean SPEC2000 IPC vs PHT size,
// for PHTs indexed with no miss-index bits and with the full miss index.
func Fig13PHTSize(o Options) []stats.Series {
	o = o.withDefaults()
	cfg := o.simConfig()
	out := make([]stats.Series, 2)
	out[0].Name = "PHT index using 0 bits from miss index"
	out[1].Name = "PHT index using full miss index"
	var jobs []Job
	for _, size := range PHTSizes {
		for _, nbits := range []int{0, 10} {
			f := sim.TCPWithPHT(size, nbits, false)
			for _, b := range o.Benches {
				jobs = append(jobs, Job{Bench: b, Factory: f, Config: cfg})
			}
		}
	}
	res := o.Runner.Map(jobs)
	for si, size := range PHTSizes {
		for vi := range []int{0, 10} {
			point := res[(si*2+vi)*len(o.Benches):][:len(o.Benches)]
			var ipcs []float64
			for _, r := range point {
				ipcs = append(ipcs, r.IPC())
			}
			out[vi].Add(sizeName(size), stats.Geomean(ipcs))
		}
	}
	return out
}

func sizeName(b int) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}

// Fig13IndexBits reproduces Figure 13 (bottom): mean SPEC2000 IPC of an
// 8 KB PHT with 0-3 miss-index bits in the PHT index.
func Fig13IndexBits(o Options) stats.Series {
	o = o.withDefaults()
	cfg := o.simConfig()
	s := stats.Series{Name: "mean IPC vs miss-index bits (8KB PHT)"}
	var fs []sim.Factory
	for bits := 0; bits <= 3; bits++ {
		fs = append(fs, sim.TCPWithPHT(8<<10, bits, false))
	}
	for bits, ipc := range meanIPCs(o, cfg, fs...) {
		s.Add(fmt.Sprintf("n=%d", bits), ipc)
	}
	return s
}

// Fig14Hybrid reproduces Figure 14: prefetching into L2 only (TCP-8K) vs
// the hybrid that also promotes into L1 once the victim is predicted dead.
func Fig14Hybrid(o Options) *stats.Table {
	o = o.withDefaults()
	return improvementTable("Figure 14: prefetch into L2 (TCP-8K) vs into L1 (Hybrid-8K)",
		o, o.simConfig(), sim.TCP8K(), sim.Hybrid8K())
}
