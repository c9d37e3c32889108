package tagprefetch

// The benchmark harness: one testing.B benchmark per paper table/figure
// plus the DESIGN.md ablations. Each benchmark iteration regenerates the
// corresponding experiment end to end and reports its headline number as a
// custom metric, so
//
//	go test -bench=Fig -benchmem
//
// reproduces the whole evaluation. Scale with environment variables:
//
//	TAGPREFETCH_INSTR   measured instructions per run   (default 200000)
//	TAGPREFETCH_WARMUP  warmup instructions per run     (default 2x INSTR)
//	TAGPREFETCH_FULL=1  reference scale (1M measured / 2M warmup)
//
// EXPERIMENTS.md records a reference run at full scale.

import (
	"io"
	"os"
	"strconv"
	"testing"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/core"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

func benchOptions() experiment.Options {
	o := experiment.Options{Instructions: 200_000}
	if v := os.Getenv("TAGPREFETCH_INSTR"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil && n > 0 {
			o.Instructions = n
		}
	}
	o.Warmup = 2 * o.Instructions
	if v := os.Getenv("TAGPREFETCH_WARMUP"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil && n > 0 {
			o.Warmup = n
		}
	}
	if os.Getenv("TAGPREFETCH_FULL") == "1" {
		o.Instructions, o.Warmup = 1_000_000, 2_000_000
	}
	return o
}

// lastPercent extracts the last percentage cell of a table's final
// (geomean) row by re-deriving it from the table string; experiments
// report geomeans in their last row, so benchmarks recompute instead.
// To keep metrics robust we recompute improvements inline where needed.

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table1().NumRows() == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig01IdealL2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.Fig01IdealL2(o)
		if tab.NumRows() != len(workload.Names())+1 {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func profileFigure(b *testing.B, fig func(experiment.Options, map[string]Summary) *stats.Table) {
	b.Helper()
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		prof := experiment.ProfileAll(o)
		tab := fig(o, prof)
		if tab.NumRows() != len(workload.Names()) {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkFig02TagStats(b *testing.B)  { profileFigure(b, experiment.Fig02TagStats) }
func BenchmarkFig03AddrStats(b *testing.B) { profileFigure(b, experiment.Fig03AddrStats) }
func BenchmarkFig04TagSpread(b *testing.B) { profileFigure(b, experiment.Fig04TagSpread) }
func BenchmarkFig05SeqRatio(b *testing.B)  { profileFigure(b, experiment.Fig05SeqRatio) }
func BenchmarkFig06SeqStats(b *testing.B)  { profileFigure(b, experiment.Fig06SeqStats) }
func BenchmarkFig07SeqSpread(b *testing.B) { profileFigure(b, experiment.Fig07SeqSpread) }
func BenchmarkFig15Strided(b *testing.B)   { profileFigure(b, experiment.Fig15Strided) }

func BenchmarkFig11IPC(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.Fig11IPC(o)
		if tab.NumRows() != len(workload.Names())+1 {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkFig12Traffic(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.Fig12Traffic(o)
		if tab.NumRows() != 2*len(workload.Names()) {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkFig13PHTSize(b *testing.B) {
	o := benchOptions()
	var last []stats.Series
	for i := 0; i < b.N; i++ {
		last = experiment.Fig13PHTSize(o)
	}
	if len(last) == 2 && len(last[0].Values) > 0 {
		b.ReportMetric(last[0].Values[len(last[0].Values)-1], "sharedIPC@8MB")
		b.ReportMetric(last[1].Values[len(last[1].Values)-1], "privateIPC@8MB")
	}
}

func BenchmarkFig13IndexBits(b *testing.B) {
	o := benchOptions()
	var last stats.Series
	for i := 0; i < b.N; i++ {
		last = experiment.Fig13IndexBits(o)
	}
	if len(last.Values) == 4 {
		b.ReportMetric(last.Values[0], "IPC@n0")
		b.ReportMetric(last.Values[3], "IPC@n3")
	}
}

func BenchmarkFig14Hybrid(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.Fig14Hybrid(o)
		if tab.NumRows() != len(workload.Names())+1 {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkAblationTHTDepth(b *testing.B) {
	o := benchOptions()
	var last stats.Series
	for i := 0; i < b.N; i++ {
		last = experiment.AblationTHTDepth(o)
	}
	if len(last.Values) == 4 {
		b.ReportMetric(last.Values[1], "IPC@k2")
	}
}

func BenchmarkAblationPHTAssoc(b *testing.B) {
	o := benchOptions()
	var last stats.Series
	for i := 0; i < b.N; i++ {
		last = experiment.AblationPHTAssoc(o)
	}
	if len(last.Values) == 5 {
		b.ReportMetric(last.Values[3], "IPC@8way")
	}
}

func BenchmarkAblationHashing(b *testing.B) {
	o := benchOptions()
	var last stats.Series
	for i := 0; i < b.N; i++ {
		last = experiment.AblationHashing(o)
	}
	if len(last.Values) == 2 {
		b.ReportMetric(last.Values[0], "IPC@truncadd")
		b.ReportMetric(last.Values[1], "IPC@xor")
	}
}

func BenchmarkAblationMultiTarget(b *testing.B) {
	o := benchOptions()
	var last stats.Series
	for i := 0; i < b.N; i++ {
		last = experiment.AblationMultiTarget(o)
	}
	if len(last.Values) == 3 {
		b.ReportMetric(last.Values[0], "IPC@1target")
		b.ReportMetric(last.Values[2], "IPC@4target")
	}
}

func BenchmarkAblationClassicBaselines(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.AblationClassicBaselines(o)
		if tab.NumRows() != len(workload.Names())+1 {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// per wall-second) on a representative memory-bound workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := RunConfig{Instructions: 500_000, Warmup: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run("mcf", TCP8K, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Instructions)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

func BenchmarkAblationCriticalFilter(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.AblationCriticalFilter(o)
		if tab.NumRows() != len(workload.Names()) {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkAblationStrideAssist(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.AblationStrideAssist(o)
		if tab.NumRows() != len(workload.Names())+1 {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkCoverageComparison(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.CoverageComparison(o)
		if tab.NumRows() != len(workload.Names()) {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkAblationPlacement(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		tab := experiment.AblationPlacement(o)
		if tab.NumRows() != len(workload.Names())+1 {
			b.Fatalf("rows = %d", tab.NumRows())
		}
	}
}

func BenchmarkAblationBranchPredictors(b *testing.B) {
	o := benchOptions()
	var last stats.Series
	for i := 0; i < b.N; i++ {
		last = experiment.AblationBranchPredictors(o)
	}
	if len(last.Values) == 5 {
		b.ReportMetric(last.Values[2], "IPC@gshare")
	}
}

// missPath drives the memory hierarchy's hot miss path directly: a strided
// address walk far larger than the L1, through a TCP-8K prefetcher, so
// nearly every access exercises miss handling, MSHR booking, L2 fill and
// prefetch issue. tel == nil is the disabled-telemetry baseline (every
// event goes through the shared no-op tracer).
func missPath(b *testing.B, tel *telemetry.Run) {
	memCfg := memsys.DefaultConfig()
	pf := core.New(core.TCP8K(memCfg.L1D))
	mem := memsys.New(memCfg, pf)
	if tel != nil {
		mem.AttachTelemetry(tel.Registry.Sub("memsys"), tel.Tracer)
	}
	now := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addr.Addr(uint64(i) * 4096 % (1 << 28))
		mem.Access(a, 0x400000, false, now)
		now += 8
	}
}

// BenchmarkMissPathTelemetryOff and ...On bound the cost of the telemetry
// layer on the hottest simulator path. Off must match the pre-telemetry
// baseline (counters are plain single-writer fields, events a single
// branch); On pays for JSONL encoding into a discarded sink.
func BenchmarkMissPathTelemetryOff(b *testing.B) { missPath(b, nil) }

func BenchmarkMissPathTelemetryOn(b *testing.B) {
	run := telemetry.NewRun(0)
	run.Tracer = telemetry.NewTracer(io.Discard, telemetry.TracerOptions{MinLevel: telemetry.LevelDebug})
	missPath(b, run)
}

// TestDisabledTracerZeroAllocPerEvent is the integration-level guarantee
// behind BenchmarkMissPathTelemetryOff: with telemetry disabled, emitting
// an event through the default no-op tracer allocates nothing.
func TestDisabledTracerZeroAllocPerEvent(t *testing.T) {
	tr := telemetry.Nop()
	ev := telemetry.Event{Cycle: 1, Type: "prefetch.issued",
		Level: telemetry.LevelInfo, Addr: 0x1000, PC: 0x400000}
	if allocs := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per event, want 0", allocs)
	}
}
