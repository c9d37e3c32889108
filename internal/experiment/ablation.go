package experiment

import (
	"fmt"

	"tagprefetch/internal/branch"
	"tagprefetch/internal/core"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
)

// meanIPCs submits every (bench, factory) point through the runner as one
// batch and returns the per-factory geomean IPC over o's benches.
func meanIPCs(o Options, cfg sim.Config, fs ...sim.Factory) []float64 {
	res := o.Runner.Map(GridJobs(o.Benches, fs, cfg))
	out := make([]float64, len(fs))
	for fi := range fs {
		var ipcs []float64
		for bi := range o.Benches {
			ipcs = append(ipcs, res[bi*len(fs)+fi].IPC())
		}
		out[fi] = stats.Geomean(ipcs)
	}
	return out
}

// AblationTHTDepth (A1) sweeps the THT history depth k (1-4 tags per row)
// at the TCP-8K design point. The paper uses k = 2.
func AblationTHTDepth(o Options) stats.Series {
	o = o.withDefaults()
	s := stats.Series{Name: "mean IPC vs THT depth k (8KB PHT, shared)"}
	var fs []sim.Factory
	for k := 1; k <= 4; k++ {
		fs = append(fs, sim.Custom(fmt.Sprintf("tcp-8K/k%d", k), core.Config{
			HistoryDepth: k, PHTSets: 256, PHTWays: 8,
		}))
	}
	for i, ipc := range meanIPCs(o, o.simConfig(), fs...) {
		s.Add(fmt.Sprintf("k=%d", i+1), ipc)
	}
	return s
}

// AblationPHTAssoc (A2) sweeps PHT associativity at a fixed 8 KB budget
// (sets x ways x 4 B = 8 KB).
func AblationPHTAssoc(o Options) stats.Series {
	o = o.withDefaults()
	s := stats.Series{Name: "mean IPC vs PHT associativity (8KB budget)"}
	allWays := []int{1, 2, 4, 8, 16}
	var fs []sim.Factory
	for _, ways := range allWays {
		sets := 8 * 1024 / 4 / ways
		fs = append(fs, sim.Custom(fmt.Sprintf("tcp-8K/w%d", ways), core.Config{
			HistoryDepth: 2, PHTSets: sets, PHTWays: ways,
		}))
	}
	for i, ipc := range meanIPCs(o, o.simConfig(), fs...) {
		s.Add(fmt.Sprintf("%d-way", allWays[i]), ipc)
	}
	return s
}

// AblationHashing (A3) compares the paper's truncated-addition PHT index
// hash against a gshare-style XOR fold, at TCP-8K.
func AblationHashing(o Options) stats.Series {
	o = o.withDefaults()
	s := stats.Series{Name: "mean IPC vs PHT hash (8KB PHT)"}
	hashes := []struct {
		name string
		kind core.HashKind
	}{{"trunc-add", core.HashTruncAdd}, {"xor-fold", core.HashXOR}}
	var fs []sim.Factory
	for _, h := range hashes {
		fs = append(fs, sim.Custom("tcp-8K/"+h.name, core.Config{
			HistoryDepth: 2, PHTSets: 256, PHTWays: 8, Hash: h.kind,
		}))
	}
	for i, ipc := range meanIPCs(o, o.simConfig(), fs...) {
		s.Add(hashes[i].name, ipc)
	}
	return s
}

// AblationMultiTarget (A4) implements the Section 6 future-work question:
// Markov-style multi-target PHT entries. The byte budget is held at 8 KB,
// so more targets mean fewer entries.
func AblationMultiTarget(o Options) stats.Series {
	o = o.withDefaults()
	s := stats.Series{Name: "mean IPC vs targets/entry (8KB budget)"}
	targets := []int{1, 2, 4}
	var fs []sim.Factory
	for _, m := range targets {
		entryBytes := 2 * (1 + m) // TagBits=16 -> 2B per stored tag
		sets := 8 * 1024 / entryBytes / 8
		fs = append(fs, sim.Custom(fmt.Sprintf("tcp-8K/t%d", m), core.Config{
			HistoryDepth: 2, PHTSets: pow2Floor(sets), PHTWays: 8, Targets: m,
		}))
	}
	for i, ipc := range meanIPCs(o, o.simConfig(), fs...) {
		s.Add(fmt.Sprintf("%d-target", targets[i]), ipc)
	}
	return s
}

func pow2Floor(v int) int {
	p := 1
	for p*2 <= v {
		p *= 2
	}
	return p
}

// AblationClassicBaselines (A5) compares TCP-8K against the classic
// prefetchers the paper discusses in related work: stride (Baer-Chen),
// stream buffers (Jouppi), Markov (Joseph-Grunwald) and next-line.
func AblationClassicBaselines(o Options) *stats.Table {
	o = o.withDefaults()
	return improvementTable("Ablation A5: TCP-8K vs classic prefetchers (IPC improvement)",
		o, o.simConfig(),
		sim.NextLine(), sim.Stride(), sim.StreamBuffers(), sim.Markov(),
		sim.GHB(), sim.TCP8K())
}

// AblationCriticalFilter (A6) measures the Section 6 critical-miss filter:
// TCP-8K with and without gating prefetch issue behind the PC-criticality
// predictor trained at load retirement.
func AblationCriticalFilter(o Options) *stats.Table {
	o = o.withDefaults()
	cfg := o.simConfig()
	fs := []sim.Factory{sim.TCP8K(), sim.WithCriticalFilter(sim.TCP8K())}

	t := stats.NewTable("Ablation A6: critical-miss filter on TCP-8K",
		"bench", "tcp-8K IPC", "tcp-8K+cf IPC", "prefetches", "prefetches+cf")
	res := o.Runner.Map(GridJobs(o.Benches, fs, cfg))
	for bi, b := range o.Benches {
		rp, rf := res[bi*2], res[bi*2+1]
		t.AddRow(b, fmt.Sprintf("%.3f", rp.IPC()), fmt.Sprintf("%.3f", rf.IPC()),
			fmt.Sprintf("%d", rp.Mem.PrefetchIssued), fmt.Sprintf("%d", rf.Mem.PrefetchIssued))
	}
	return t
}

// AblationStrideAssist (A7) measures the Section 6 strided-sequence
// extension: a small TCP with arithmetic stride prediction versus plain
// TCPs at the same and at 4x the PHT budget. Stride confirmation needs two
// equal deltas, so all configurations use a 3-deep THT.
func AblationStrideAssist(o Options) *stats.Table {
	o = o.withDefaults()
	cfg := o.simConfig()
	return improvementTable("Ablation A7: strided-sequence assist (Section 6)", o, cfg,
		sim.Custom("tcp-2K/k3", core.Config{HistoryDepth: 3, PHTSets: 64, PHTWays: 8}),
		sim.Custom("tcp-2K/k3+stride", core.Config{HistoryDepth: 3, PHTSets: 64, PHTWays: 8, StrideAssist: true}),
		sim.Custom("tcp-8K/k3", core.Config{HistoryDepth: 3, PHTSets: 256, PHTWays: 8}),
		sim.Custom("tcp-8K/k3+stride", core.Config{HistoryDepth: 3, PHTSets: 256, PHTWays: 8, StrideAssist: true}))
}

// AblationPlacement (A8) measures the paper's placement argument
// (Section 4 / Figure 10): the same TCP-8K observing the L1 miss stream at
// the L1/L2 boundary versus observing the (sparser, more filtered) L2 miss
// stream at the L2/memory boundary.
func AblationPlacement(o Options) *stats.Table {
	o = o.withDefaults()
	return improvementTable("Ablation A8: prefetcher placement (L1/L2 vs L2/memory boundary)",
		o, o.simConfig(), sim.TCP8K(), sim.AtL2Boundary(sim.TCP8K()))
}

// AblationBranchPredictors (A9) measures how sensitive the machine (and so
// the prefetching results) is to the front-end predictor — the two-level
// family the paper cites as TCP's structural ancestor.
func AblationBranchPredictors(o Options) stats.Series {
	o = o.withDefaults()
	s := stats.Series{Name: "mean baseline IPC vs branch predictor"}
	cfg := o.simConfig()
	// Each point names its predictor, so every point has an address; the
	// gshare row is the default machine and shares the baseline with every
	// other sweep.
	var jobs []Job
	for _, p := range branch.Predictors {
		c := cfg
		c.CPU.Predictor = p.Name
		jobs = append(jobs, BaselineJobs(o.Benches, c)...)
	}
	res := o.Runner.Map(jobs)
	for pi, p := range branch.Predictors {
		var ipcs []float64
		for bi := range o.Benches {
			ipcs = append(ipcs, res[pi*len(o.Benches)+bi].IPC())
		}
		s.Add(p.Name, stats.Geomean(ipcs))
	}
	return s
}

func factoryNames(fs []sim.Factory) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}
