package workload

import (
	"fmt"
)

// KB and MB are byte-size helpers for stream footprints.
const (
	KB = 1024
	MB = 1024 * 1024
)

// IdealOrder lists the 26 SPEC CPU2000 benchmarks in the paper's figure
// order: ascending potential IPC improvement with an ideal L2 data cache
// (Figure 1, left to right).
var IdealOrder = []string{
	"fma3d", "equake", "eon", "crafty", "gzip", "sixtrack", "vortex",
	"perlbmk", "mesa", "galgel", "apsi", "bzip2", "gap", "wupwise",
	"parser", "facerec", "vpr", "twolf", "lucas", "gcc", "applu", "art",
	"mgrid", "swim", "ammp", "mcf",
}

// specs is the benchmark model catalog.
//
// Calibration recipe (DESIGN.md §6): stream Weights are loop-body memory
// slots, so a stream's share of the L1 miss stream is
// slots x missRate / totalSlots, with missRate ~ blockBytes/stride for
// sweeps (0.25 at stride 8), ~1 for chases/randoms/columns, ~0 for
// L1-resident hot loops. Hot-loop weights therefore set each benchmark's
// overall L1 miss rate; footprints set the unique-tag counts of Figure 2
// (one tag per 32 KiB) and whether the working set exceeds the 1 MB L2
// (which fixes the ideal-L2 potential of Figure 1); sweep streams produce
// the across-set shared patterns that favour TCP-8K, chase streams the
// private per-set patterns that favour TCP-8M plus serialised misses;
// random streams defeat correlation (crafty, twolf); column streams emit
// the strided per-set tag sequences of Figure 15.
var specs = map[string]Spec{
	// ---- low ideal-L2 potential: cache-resident codes -------------------
	"fma3d": { // FP crash simulation: tiny spread, enormous per-set reuse
		Name: "fma3d", BodyLen: 108, MemFrac: 0.30, StoreFrac: 0.35,
		BranchFrac: 0.06, FPFrac: 0.5, MultFrac: 0.1, DepProb: 0.45,
		LoadUseProb: 0.3, BranchPredictability: 0.98,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 31, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 64 * KB, Stride: 8},
		},
	},
	"equake": { // FP earthquake sim: sparse matrix mostly L2-resident
		Name: "equake", BodyLen: 80, MemFrac: 0.34, StoreFrac: 0.3,
		BranchFrac: 0.07, FPFrac: 0.45, MultFrac: 0.12, DepProb: 0.45,
		LoadUseProb: 0.35, BranchPredictability: 0.97,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 25, Footprint: 20 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 96 * KB, Stride: 8},
			{Kind: SweepKind, Weight: 1, Footprint: 96 * KB, Stride: 8},
			{Kind: RandomKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 128},
		},
	},
	"eon": { // C++ ray tracer: good temporal, poor spatial locality
		Name: "eon", BodyLen: 125, MemFrac: 0.32, StoreFrac: 0.4,
		BranchFrac: 0.13, FPFrac: 0.25, MultFrac: 0.08, DepProb: 0.5,
		LoadUseProb: 0.35, BranchPredictability: 0.93,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 39, Footprint: 20 * KB},
			{Kind: RandomKind, Weight: 1, Footprint: 64 * KB, Block: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 56},
		},
	},
	"crafty": { // chess: hash tables -> near-random sequences (Fig 5)
		Name: "crafty", BodyLen: 122, MemFrac: 0.32, StoreFrac: 0.3,
		BranchFrac: 0.16, FPFrac: 0, MultFrac: 0.05, DepProb: 0.5,
		LoadUseProb: 0.4, BranchPredictability: 0.88,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 39, Footprint: 20 * KB},
			{Kind: RandomKind, Weight: 1, Footprint: 96 * KB, Block: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 28},
		},
	},
	"gzip": { // compression: windows swept repeatedly, L2-resident
		Name: "gzip", BodyLen: 112, MemFrac: 0.33, StoreFrac: 0.35,
		BranchFrac: 0.14, FPFrac: 0, MultFrac: 0.03, DepProb: 0.5,
		LoadUseProb: 0.4, BranchPredictability: 0.91,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 33, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 2, Footprint: 144 * KB, Stride: 8},
			{Kind: SweepKind, Weight: 2, Footprint: 144 * KB, Stride: 8},
			{Kind: SweepKind, Weight: 1, Footprint: 2 * MB, Stride: 32, Every: 24},
		},
	},
	"sixtrack": { // FP particle tracking: small arrays, loop-heavy
		Name: "sixtrack", BodyLen: 203, MemFrac: 0.30, StoreFrac: 0.3,
		BranchFrac: 0.05, FPFrac: 0.55, MultFrac: 0.15, DepProb: 0.45,
		LoadUseProb: 0.3, BranchPredictability: 0.98,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 59, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 96 * KB, Stride: 16},
			{Kind: SweepKind, Weight: 1, Footprint: 96 * KB, Stride: 16},
			{Kind: SweepKind, Weight: 1, Footprint: 2 * MB, Stride: 32, Every: 36},
		},
	},
	"vortex": { // OO database: mixed pointer/scan, slightly beyond L2
		Name: "vortex", BodyLen: 133, MemFrac: 0.36, StoreFrac: 0.4,
		BranchFrac: 0.14, FPFrac: 0, MultFrac: 0.02, DepProb: 0.5,
		LoadUseProb: 0.4, BranchPredictability: 0.94,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 45, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 2, Footprint: 256 * KB, Stride: 16},
			{Kind: RandomKind, Weight: 1, Footprint: 64 * KB, Block: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 11},
		},
	},
	"perlbmk": { // perl interpreter: pointer chasing over a mid-size heap
		Name: "perlbmk", BodyLen: 129, MemFrac: 0.34, StoreFrac: 0.4,
		BranchFrac: 0.16, FPFrac: 0, MultFrac: 0.02, DepProb: 0.5,
		LoadUseProb: 0.45, BranchPredictability: 0.92,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 43, Footprint: 20 * KB},
			{Kind: ChaseKind, Weight: 1, Footprint: 256 * KB, Block: 32},
			{Kind: ChaseKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 20},
		},
	},
	"mesa": { // 3D graphics library: frame-buffer sweeps near L2 size
		Name: "mesa", BodyLen: 100, MemFrac: 0.32, StoreFrac: 0.45,
		BranchFrac: 0.08, FPFrac: 0.35, MultFrac: 0.1, DepProb: 0.45,
		LoadUseProb: 0.3, BranchPredictability: 0.96,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 29, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 192 * KB, Stride: 16},
			{Kind: SweepKind, Weight: 1, Footprint: 192 * KB, Stride: 16},
			{Kind: SweepKind, Weight: 1, Footprint: 2 * MB, Stride: 32, Every: 16},
		},
	},
	"galgel": { // FP fluid dynamics: blocked solver just beyond L2
		Name: "galgel", BodyLen: 145, MemFrac: 0.33, StoreFrac: 0.3,
		BranchFrac: 0.05, FPFrac: 0.55, MultFrac: 0.18, DepProb: 0.45,
		LoadUseProb: 0.3, BranchPredictability: 0.98,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 45, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 2, Footprint: 256 * KB, Stride: 16},
			{Kind: SweepKind, Weight: 1, Footprint: 192 * KB, Stride: 16},
			{Kind: SweepKind, Weight: 1, Footprint: 2 * MB, Stride: 32, Every: 8},
		},
	},
	"apsi": { // FP weather: very large working set but compute-rich
		Name: "apsi", BodyLen: 167, MemFrac: 0.24, StoreFrac: 0.3,
		BranchFrac: 0.05, FPFrac: 0.55, MultFrac: 0.15, DepProb: 0.4,
		LoadUseProb: 0.25, BranchPredictability: 0.98,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 38, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 384 * KB, Stride: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 256 * KB, Stride: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 2 * MB, Stride: 32, Every: 8},
		},
	},
	"bzip2": { // compression: block sorting over ~1.5 MB
		Name: "bzip2", BodyLen: 244, MemFrac: 0.34, StoreFrac: 0.35,
		BranchFrac: 0.14, FPFrac: 0, MultFrac: 0.02, DepProb: 0.5,
		LoadUseProb: 0.45, BranchPredictability: 0.9,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 80, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 256 * KB, Stride: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 256 * KB, Stride: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 64 * KB, Block: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 4},
		},
	},
	"gap": { // group theory: large heap, moderate memory intensity
		Name: "gap", BodyLen: 227, MemFrac: 0.30, StoreFrac: 0.35,
		BranchFrac: 0.12, FPFrac: 0, MultFrac: 0.04, DepProb: 0.45,
		LoadUseProb: 0.35, BranchPredictability: 0.93,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 66, Footprint: 20 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 320 * KB, Stride: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 320 * KB, Stride: 32},
		},
	},
	"wupwise": { // FP quantum chromodynamics: big dense sweeps
		Name: "wupwise", BodyLen: 268, MemFrac: 0.28, StoreFrac: 0.3,
		BranchFrac: 0.04, FPFrac: 0.6, MultFrac: 0.2, DepProb: 0.4,
		LoadUseProb: 0.25, BranchPredictability: 0.99,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 72, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 2, Footprint: 512 * KB, Stride: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 256 * KB, Stride: 32},
		},
	},
	"parser": { // NLP: dictionary pointer walks
		Name: "parser", BodyLen: 134, MemFrac: 0.35, StoreFrac: 0.35,
		BranchFrac: 0.15, FPFrac: 0, MultFrac: 0.02, DepProb: 0.5,
		LoadUseProb: 0.45, BranchPredictability: 0.91,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 45, Footprint: 16 * KB},
			{Kind: ChaseKind, Weight: 1, Footprint: 384 * KB, Block: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 96 * KB, Block: 32},
			{Kind: ChaseKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 6},
		},
	},
	"facerec": { // FP face recognition: private per-set patterns (TCP-8M)
		Name: "facerec", BodyLen: 112, MemFrac: 0.33, StoreFrac: 0.25,
		BranchFrac: 0.06, FPFrac: 0.5, MultFrac: 0.15, DepProb: 0.45,
		LoadUseProb: 0.3, BranchPredictability: 0.97,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 34, Footprint: 16 * KB},
			{Kind: ChaseKind, Weight: 2, Footprint: 768 * KB, Block: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 768 * KB, Stride: 8},
			{Kind: ChaseKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 10},
		},
	},
	"vpr": { // place & route: graph walks plus scans
		Name: "vpr", BodyLen: 111, MemFrac: 0.35, StoreFrac: 0.3,
		BranchFrac: 0.14, FPFrac: 0.1, MultFrac: 0.03, DepProb: 0.5,
		LoadUseProb: 0.45, BranchPredictability: 0.9,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 37, Footprint: 16 * KB},
			{Kind: ChaseKind, Weight: 1, Footprint: 512 * KB, Block: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 512 * KB, Block: 32},
			{Kind: RandomKind, Weight: 1, Footprint: 2 * MB, Block: 32, Every: 12},
		},
	},
	"twolf": { // place & route: near-random sequences over > L2 footprint
		Name: "twolf", BodyLen: 225, MemFrac: 0.36, StoreFrac: 0.3,
		BranchFrac: 0.15, FPFrac: 0, MultFrac: 0.03, DepProb: 0.5,
		LoadUseProb: 0.45, BranchPredictability: 0.89,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 80, Footprint: 16 * KB},
			{Kind: RandomKind, Weight: 1, Footprint: 1280 * KB, Block: 32},
		},
	},
	"lucas": { // FP primality: FFT-style strided sweeps + column walks
		Name: "lucas", BodyLen: 90, MemFrac: 0.30, StoreFrac: 0.35,
		BranchFrac: 0.03, FPFrac: 0.6, MultFrac: 0.2, DepProb: 0.4,
		LoadUseProb: 0.25, BranchPredictability: 0.99,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 23, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 1, Footprint: 256 * KB, Stride: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 256 * KB, Stride: 32},
			{Kind: ColumnKind, Weight: 1, Footprint: 4 * MB, RowStride: 32 * KB, Rows: 64, Block: 32, Every: 4},
			{Kind: SweepKind, Weight: 1, Footprint: 2 * MB, Stride: 32, Every: 10},
		},
	},
	"gcc": { // compiler: many distinct per-set patterns (TCP-8M better)
		Name: "gcc", BodyLen: 109, MemFrac: 0.34, StoreFrac: 0.4,
		BranchFrac: 0.16, FPFrac: 0, MultFrac: 0.02, DepProb: 0.5,
		LoadUseProb: 0.45, BranchPredictability: 0.92,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 34, Footprint: 16 * KB},
			{Kind: ChaseKind, Weight: 2, Footprint: 768 * KB, Block: 32},
			{Kind: SweepKind, Weight: 1, Footprint: 512 * KB, Stride: 8},
			{Kind: ChaseKind, Weight: 1, Footprint: 2560 * KB, Block: 32, Every: 5},
		},
	},
	"applu": { // FP PDE solver: large shared sweeps (TCP-8K favoured)
		Name: "applu", BodyLen: 56, MemFrac: 0.32, StoreFrac: 0.35,
		BranchFrac: 0.03, FPFrac: 0.6, MultFrac: 0.2, DepProb: 0.4,
		LoadUseProb: 0.3, BranchPredictability: 0.99,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 12, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 3, Footprint: 512 * KB, Stride: 8},
			{Kind: SweepKind, Weight: 3, Footprint: 1280 * KB, Stride: 8},
		},
	},
	"art": { // neural net: ~96 unique tags scanned over and over
		Name: "art", BodyLen: 55, MemFrac: 0.38, StoreFrac: 0.2,
		BranchFrac: 0.08, FPFrac: 0.45, MultFrac: 0.15, DepProb: 0.45,
		LoadUseProb: 0.35, BranchPredictability: 0.97,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 9, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 6, Footprint: 1536 * KB, Stride: 8},
			{Kind: SweepKind, Weight: 6, Footprint: 1536 * KB, Stride: 8},
		},
	},
	"mgrid": { // FP multigrid: huge dense sweeps
		Name: "mgrid", BodyLen: 44, MemFrac: 0.36, StoreFrac: 0.3,
		BranchFrac: 0.02, FPFrac: 0.6, MultFrac: 0.2, DepProb: 0.4,
		LoadUseProb: 0.3, BranchPredictability: 0.99,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 10, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 4, Footprint: 2 * MB, Stride: 8},
			{Kind: SweepKind, Weight: 2, Footprint: 1536 * KB, Stride: 8},
		},
	},
	"swim": { // FP shallow water: sweeps + column walks (most strided)
		Name: "swim", BodyLen: 132, MemFrac: 0.38, StoreFrac: 0.35,
		BranchFrac: 0.02, FPFrac: 0.6, MultFrac: 0.18, DepProb: 0.4,
		LoadUseProb: 0.3, BranchPredictability: 0.99,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 29, Footprint: 16 * KB},
			{Kind: SweepKind, Weight: 10, Footprint: 2560 * KB, Stride: 8},
			{Kind: SweepKind, Weight: 10, Footprint: 2 * MB, Stride: 8},
			{Kind: ColumnKind, Weight: 1, Footprint: 4 * MB, RowStride: 32 * KB, Rows: 64, Block: 32},
		},
	},
	"ammp": { // FP molecular dynamics: neighbour-list chases, memory-bound
		Name: "ammp", BodyLen: 53, MemFrac: 0.38, StoreFrac: 0.25,
		BranchFrac: 0.06, FPFrac: 0.45, MultFrac: 0.15, DepProb: 0.45,
		LoadUseProb: 0.4, BranchPredictability: 0.96,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 16, Footprint: 16 * KB},
			{Kind: ChaseKind, Weight: 2, Footprint: 1792 * KB, Block: 32},
			{Kind: SweepKind, Weight: 2, Footprint: 1 * MB, Stride: 8},
		},
	},
	"mcf": { // network simplex: giant pointer chase, the most memory-bound
		Name: "mcf", BodyLen: 65, MemFrac: 0.40, StoreFrac: 0.25,
		BranchFrac: 0.12, FPFrac: 0, MultFrac: 0.02, DepProb: 0.5,
		LoadUseProb: 0.5, BranchPredictability: 0.9,
		Streams: []StreamSpec{
			{Kind: HotKind, Weight: 18, Footprint: 16 * KB},
			{Kind: ChaseKind, Weight: 6, Footprint: 2 * MB, Block: 32},
			{Kind: RandomKind, Weight: 2, Footprint: 1 * MB, Block: 32},
		},
	},
}

// Spec2000 returns the model for the named benchmark.
func Spec2000(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown SPEC2000 benchmark %q", name)
	}
	return s, nil
}

// Names returns all benchmark names in the paper's figure order.
func Names() []string {
	return append([]string(nil), IdealOrder...)
}
