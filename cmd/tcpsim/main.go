// Command tcpsim runs one benchmark model (or all of them) on the simulated
// machine of Table 1 with a chosen prefetcher and prints IPC and memory
// statistics.
//
// Examples:
//
//	tcpsim -bench mcf -pf tcp8k
//	tcpsim -bench all -pf none -ideal     # Figure 1's ideal-L2 runs
//	tcpsim -bench swim -pf tcp -pht 32768 -nbits 2
//	tcpsim -bench mcf -pf tcp8k -json out.json     # machine-readable report
//	tcpsim -bench mcf -pf tcp8k -trace ev.jsonl -progress 1
//	tcpsim -bench all -pf tcp8k -jobs 4            # 4 benchmarks in flight
//	tcpsim -bench mcf -pf tcp8k -save-at 500000 -save warm.ckpt
//	tcpsim -bench mcf -pf tcp8k -restore warm.ckpt # continue bit-identically
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/runflags"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// pfUsage is the -pf help text: every row of the scheme table, plus the
// parameterised tcp this command builds from -pht and -nbits.
func pfUsage() string {
	var b strings.Builder
	b.WriteString("prefetcher:")
	for _, sc := range sim.Schemes {
		fmt.Fprintf(&b, "\n%-9s %s", sc.Name, sc.Doc)
	}
	b.WriteString("\ntcp       TCP with a -pht byte PHT and -nbits miss-index bits")
	return b.String()
}

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and trace close, truncating
// -cpuprofile/-memprofile/-trace output.
func main() { os.Exit(run()) }

func run() int {
	var (
		win    = runflags.RegisterWindow(flag.CommandLine, "tcpsim")
		bench  = flag.String("bench", "all", "SPEC2000 benchmark name, or 'all'")
		pfName = flag.String("pf", "none", pfUsage())
		pht    = flag.Int("pht", 8192, "PHT bytes for -pf tcp")
		nbits  = flag.Int("nbits", 0, "miss-index bits in the PHT index for -pf tcp")
		ideal  = flag.Bool("ideal", false, "ideal L2 (every L2 access hits)")
		list   = flag.Bool("list", false, "list benchmark models and exit")
		jobs   = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers across benchmarks (1 = serial)")

		jsonOut    = flag.String("json", "", "write a machine-readable run report (metrics, time series, phases) to this file")
		sample     = flag.Int64("sample", 10_000, "time-series sampling interval in cycles (with -json/-progress)")
		traceOut   = flag.String("trace", "", "write structured events (JSONL) to this file")
		traceLevel = flag.String("trace-level", "info", "minimum event level: debug|info")
		traceMax   = flag.Uint64("trace-max", 1<<20, "cap on traced events (0 = unlimited)")
		progress   = flag.Uint64("progress", 0, "print a heartbeat to stderr every N million instructions")
		statusAddr = flag.String("status-addr", "", "serve the running benchmarks' live metric registries as Prometheus text on this address (/metrics)")

		l1Geom      = flag.String("l1", "", "L1 dcache geometry as sizeBytes:ways:blockBytes (default Table 1)")
		l2Geom      = flag.String("l2", "", "L2 cache geometry as sizeBytes:ways:blockBytes (default Table 1)")
		savePath    = flag.String("save", "", "write a warm-state checkpoint to this file (single -bench only)")
		saveAt      = flag.Uint64("save-at", 0, "instruction count at which -save snapshots; unset defaults to the warmup/measure boundary, an explicit 0 snapshots the initial state")
		restorePath = flag.String("restore", "", "restore machine state from a checkpoint file and continue (single -bench only)")
	)
	flag.Parse()
	// -save-at 0 is a real position (the pre-warmup initial state), not the
	// boundary default, so the default is keyed on set-ness rather than value.
	saveAtSet := false
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "save-at" {
			saveAtSet = true
		}
	})

	if *list {
		for _, b := range workload.Names() {
			spec, _ := workload.Spec2000(b)
			fmt.Printf("%-10s body=%-4d mem=%.2f streams=%d\n",
				b, spec.BodyLen, spec.MemFrac, len(spec.Streams))
		}
		return 0
	}

	window, stopProf, err := win.Bind()
	if err != nil {
		return win.Exit(err)
	}
	defer stopProf()

	var f sim.Factory
	if strings.EqualFold(*pfName, "tcp") {
		f = sim.TCPWithPHT(*pht, *nbits, false)
	} else if f, err = sim.LookupScheme(*pfName); err != nil {
		fmt.Fprintln(os.Stderr, "tcpsim:", err)
		return 2
	}
	cfg, err := machineConfig(window, *ideal, *l1Geom, *l2Geom)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsim:", err)
		return 2
	}
	if saveAtSet && *savePath == "" {
		fmt.Fprintln(os.Stderr, "tcpsim: -save-at requires -save FILE")
		return 2
	}
	if !saveAtSet {
		*saveAt = cfg.Warmup
	}
	// Validate -save-at against the run's end while the flag is still in
	// hand: sim.Machine.RunTo clamps to the final instruction, so an
	// out-of-range value would otherwise silently snapshot the end state.
	if total := cfg.Warmup + cfg.Instructions; *saveAt > total {
		fmt.Fprintf(os.Stderr, "tcpsim: -save-at %d is past the end of the run (warmup %d + measured %d = %d instructions)\n",
			*saveAt, cfg.Warmup, cfg.Instructions, total)
		return 2
	}

	benches := workload.Names()
	if *bench != "all" {
		if _, err := workload.Spec2000(*bench); err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim:", err)
			return 2
		}
		benches = []string{*bench}
	}

	// Telemetry is armed only when a consumer asked for it; otherwise every
	// event goes through the zero-cost no-op tracer and no sampling occurs.
	telemetryOn := *jsonOut != "" || *traceOut != "" || *progress > 0 || *statusAddr != ""
	tracer := telemetry.Nop()
	if *traceOut != "" {
		// Parse the level first: a bad -trace-level must not truncate the
		// -trace file.
		lvl, err := telemetry.ParseLevel(*traceLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim:", err)
			return 2
		}
		tf, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim:", err)
			return 1
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, telemetry.TracerOptions{
			MinLevel: lvl, MaxEvents: *traceMax})
		defer tracer.Flush()
	}
	report := telemetry.NewReport("tcpsim")

	// Each benchmark is an independent run with its own telemetry.Run, so
	// runs isolate their registries/samplers even when executing on
	// concurrent workers; the tracer is shared and internally synchronised.
	teleRuns := make([]*telemetry.Run, len(benches))
	for i, b := range benches {
		if telemetryOn {
			tRun := telemetry.NewRun(*sample)
			tRun.Tracer = tracer
			teleRuns[i] = tRun
			tracer.Emit(telemetry.Event{Type: "run.start",
				Level: telemetry.LevelInfo, Note: b})
			if *progress > 0 {
				installProgress(tRun.Sampler, b, *progress)
			}
		}
	}

	// A scrape snapshots every run's live registry; between scrapes the
	// simulation pays nothing (PromHandler collects per request only).
	if *statusAddr != "" {
		ln, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim:", err)
			return 1
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", telemetry.PromHandler(func() []telemetry.PromSet {
			sets := make([]telemetry.PromSet, 0, len(teleRuns))
			for i, tr := range teleRuns {
				if tr == nil {
					continue
				}
				sets = append(sets, telemetry.PromFromRegistry(tr.Registry,
					telemetry.PromLabel{Name: "bench", Value: benches[i]},
					telemetry.PromLabel{Name: "prefetcher", Value: f.Name}))
			}
			return sets
		}))
		fmt.Fprintf(os.Stderr, "tcpsim: metrics on http://%s/metrics\n", ln.Addr())
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln) //nolint:errcheck // listener failure only loses the metrics view
		defer srv.Close()
	}

	ck := checkpointing{save: *savePath, saveAt: *saveAt, restore: *restorePath}
	if (ck.save != "" || ck.restore != "") && len(benches) != 1 {
		fmt.Fprintln(os.Stderr, "tcpsim: -save/-restore need a single benchmark (-bench NAME, not all)")
		return 2
	}
	results := make([]sim.Result, len(benches))
	codes := make([]int, len(benches))
	experiment.NewRunner(*jobs).ForEach(len(benches), func(i int) {
		results[i], codes[i] = runBench(benches[i], f, cfg, teleRuns[i], ck)
	})
	for _, code := range codes {
		if code != 0 {
			return code
		}
	}

	tab := stats.NewTable(
		fmt.Sprintf("tcpsim: pf=%s n=%d ideal=%v", f.Name, cfg.Instructions, *ideal),
		"bench", "IPC", "L1 miss%", "L2 miss%", "pf issued", "pf useful%", "mispred%")
	for i, b := range benches {
		r := results[i]
		if teleRuns[i] != nil {
			report.Runs = append(report.Runs,
				teleRuns[i].Report(b, f.Name, cfg.Instructions, cfg.Warmup, cfg.Seed, r.IPC()))
		}
		useful := 0.0
		if tot := r.Mem.PrefetchedOriginal + r.Mem.PrefetchedExtra; tot > 0 {
			useful = float64(r.Mem.PrefetchedOriginal) / float64(tot) * 100
		}
		mis := 0.0
		if r.CPU.Branches > 0 {
			mis = float64(r.CPU.BranchMispredicts) / float64(r.CPU.Branches) * 100
		}
		tab.AddRow(b,
			fmt.Sprintf("%.3f", r.IPC()),
			fmt.Sprintf("%.1f", float64(r.Mem.L1Misses)/float64(max(r.Mem.Accesses, 1))*100),
			fmt.Sprintf("%.1f", float64(r.Mem.L2Misses)/float64(max(r.Mem.L2Demand, 1))*100),
			fmt.Sprintf("%d", r.Mem.PrefetchIssued),
			fmt.Sprintf("%.1f", useful),
			fmt.Sprintf("%.1f", mis),
		)
	}
	tab.WriteTo(os.Stdout) //nolint:errcheck

	if *jsonOut != "" {
		if err := report.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tcpsim: report written to %s\n", *jsonOut)
	}
	return 0
}

// installProgress prints an instructions-retired/IPC heartbeat to stderr
// every N million instructions, piggybacking on the run's cycle sampler.
func installProgress(s *telemetry.Sampler, bench string, everyMillion uint64) {
	every := everyMillion * 1_000_000
	var next = every
	s.OnSample(func(cycle int64, instructions uint64, _ []float64) {
		if instructions < next {
			return
		}
		next += every
		ipc := 0.0
		if cycle > 0 {
			ipc = float64(instructions) / float64(cycle)
		}
		fmt.Fprintf(os.Stderr, "tcpsim: %s %dM instructions, %d cycles, IPC %.3f\n",
			bench, instructions/1_000_000, cycle, ipc)
	})
}

// checkpointing carries the -save, -save-at and -restore flags, with
// -save-at resolved: an unset one is the warmup/measure boundary.
type checkpointing struct {
	save    string
	saveAt  uint64
	restore string
}

// runBench runs one benchmark on its own sim.Machine, observed by tel when
// non-nil. With checkpointing flags set, the machine's state is seeded from
// a prior snapshot (-restore) or snapshotted mid-run (-save/-save-at);
// restoring and continuing is bit-identical to the uninterrupted run, so
// the printed table matches either way.
func runBench(bench string, f sim.Factory, cfg sim.Config, tel *telemetry.Run, ck checkpointing) (sim.Result, int) {
	spec, err := workload.Spec2000(bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsim:", err)
		return sim.Result{}, 2
	}
	m, err := sim.NewMachine(spec, f, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsim:", err)
		return sim.Result{}, 2
	}
	m.Observe(tel)
	if ck.restore != "" {
		data, err := checkpoint.ReadFile(ck.restore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim:", err)
			return sim.Result{}, 1
		}
		if err := m.RestoreImage(data); err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim: restore:", err)
			return sim.Result{}, 1
		}
		fmt.Fprintf(os.Stderr, "tcpsim: restored %s at instruction %d of %d\n",
			ck.restore, m.Position(), m.Total())
	}
	if ck.save != "" {
		if ck.saveAt < m.Position() {
			fmt.Fprintf(os.Stderr, "tcpsim: -save-at %d is before the current position %d\n",
				ck.saveAt, m.Position())
			return sim.Result{}, 2
		}
		m.RunTo(ck.saveAt)
		img, err := m.Checkpoint()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim: checkpoint:", err)
			return sim.Result{}, 1
		}
		if err := checkpoint.WriteFile(ck.save, img); err != nil {
			fmt.Fprintln(os.Stderr, "tcpsim:", err)
			return sim.Result{}, 1
		}
		fmt.Fprintf(os.Stderr, "tcpsim: checkpoint (%d bytes) written to %s at instruction %d\n",
			len(img), ck.save, m.Position())
	}
	return m.Run(), 0
}

// machineConfig completes cfg, the bound run window, with the machine
// flags: the ideal L2 and the -l1/-l2 cache geometries.
func machineConfig(cfg sim.Config, ideal bool, l1, l2 string) (sim.Config, error) {
	cfg.Mem = memsys.Config{IdealL2: ideal}
	var err error
	if l1 != "" {
		if cfg.Mem.L1D, err = parseGeometry(l1); err != nil {
			return sim.Config{}, fmt.Errorf("-l1: %w", err)
		}
	}
	if l2 != "" {
		if cfg.Mem.L2, err = parseGeometry(l2); err != nil {
			return sim.Config{}, fmt.Errorf("-l2: %w", err)
		}
	}
	return cfg, cfg.Validate()
}

// parseGeometry parses "sizeBytes:ways:blockBytes" into a validated cache
// geometry, surfacing addr.NewGeometry's power-of-two errors instead of the
// panic the defaulted path would hit later.
func parseGeometry(s string) (addr.Geometry, error) {
	var size, ways, block int
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &size, &ways, &block); err != nil {
		return addr.Geometry{}, fmt.Errorf("geometry %q: want sizeBytes:ways:blockBytes", s)
	}
	return addr.NewGeometry(size, ways, block)
}
