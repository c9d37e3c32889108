// Command tcpfigs regenerates the paper's tables and figures.
//
//	tcpfigs -exp all                # everything (minutes at full scale)
//	tcpfigs -exp fig11              # the TCP vs DBCP comparison
//	tcpfigs -exp fig13a -n 200000   # PHT size sweep, quick scale
//
// Experiment ids: table1, fig1, fig2 ... fig7, fig11, fig12, fig13a,
// fig13b, fig14, fig15, coverage, ablations.
//
// With -report, tcpfigs instead renders a machine-readable telemetry
// report produced by `tcpsim -json` or `tcpsweep -json`: per-run headline
// metrics, sampled time series with phase boundaries, sweep curves and
// tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/profiling"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and truncate -cpuprofile/-memprofile.
func main() { os.Exit(run()) }

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1, fig1..fig7, fig11..fig15, ablations, all)")
		n        = flag.Uint64("n", 1_000_000, "measured instructions per run")
		warm     = flag.Uint64("warmup", 2_000_000, "warmup instructions per run")
		fidelity = flag.String("warmup-fidelity", "full", "warmup engine: full (cycle-accurate) or fast (functional fast-forward, docs/FASTFORWARD.md)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		bench    = flag.String("benches", "", "comma-separated benchmark subset (default all 26)")
		asCSV    = flag.Bool("csv", false, "emit table experiments as CSV instead of aligned text")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation workers (1 = serial)")

		reportIn   = flag.String("report", "", "render a telemetry report (from tcpsim/tcpsweep -json) instead of running experiments")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file")

		warmFork = flag.Bool("warmfork", false, "run every warmup under the no-prefetch baseline and fork grid points from one warm checkpoint per benchmark")
		ckptDir  = flag.String("checkpoint-dir", "", "persist warm checkpoints and per-job result manifests in this directory")
		resume   = flag.Bool("resume", false, "answer already-completed jobs from -checkpoint-dir manifests instead of re-simulating")

		workers  = flag.Int("workers", 0, "join a distributed run splitting this grid over -checkpoint-dir (the value is advisory: any number of workers may cooperate)")
		workerID = flag.String("worker-id", "", "unique id for this worker in a distributed run (default hostname-pid; requires -workers)")
		leaseTTL = flag.Duration("lease-ttl", 30*time.Second, "heartbeat staleness horizon before a crashed worker's job leases may be stolen")
		gather   = flag.Bool("gather", false, "assemble a completed distributed run from -checkpoint-dir manifests without simulating; errors if any job is missing")

		statusAddr = flag.String("status-addr", "", "serve live fleet status over -checkpoint-dir on this address (/status JSON, /events SSE, /metrics Prometheus) while experiments run")
		flight     = flag.Bool("flight", true, "record claim-protocol events to per-job flight logs in -checkpoint-dir (worker mode; replay with tcpstatus -timeline)")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpfigs:", err)
		return 1
	}
	defer stopProf()

	if *reportIn != "" {
		if err := renderReport(*reportIn, *asCSV); err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			return 1
		}
		return 0
	}

	fid, err := sim.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpfigs: -warmup-fidelity:", err)
		return 2
	}
	if err := (sim.Config{Instructions: *n, Warmup: *warm, Seed: *seed,
		WarmupFidelity: fid}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "tcpfigs:", err)
		return 2
	}
	workerMode := *workers > 0 || *workerID != ""
	if err := distrib.ValidateWorkerFlags(*workers, *workerID, *leaseTTL); err != nil {
		fmt.Fprintln(os.Stderr, "tcpfigs:", err)
		return 2
	}
	switch {
	case *resume && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpfigs: -resume requires -checkpoint-dir")
		return 2
	case workerMode && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpfigs: -workers/-worker-id require -checkpoint-dir (the shared directory is the coordination medium)")
		return 2
	case *gather && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpfigs: -gather requires -checkpoint-dir")
		return 2
	case *gather && workerMode:
		fmt.Fprintln(os.Stderr, "tcpfigs: -gather and -workers are mutually exclusive (gather assembles after the workers finish)")
		return 2
	case *statusAddr != "" && *ckptDir == "":
		fmt.Fprintln(os.Stderr, "tcpfigs: -status-addr requires -checkpoint-dir (status is read from the shared directory)")
		return 2
	}

	// One runner for every figure: baselines simulated for fig1 are reused
	// by fig11, fig14 and the ablations via the memoised cache.
	o := experiment.Options{Instructions: *n, Warmup: *warm, Seed: *seed,
		WarmupFidelity: fid, BaselineWarmup: *warmFork,
		Runner: experiment.NewRunner(*jobs)}
	if *bench != "" {
		o.Benches = strings.Split(*bench, ",")
	}
	var claims *distrib.Store
	if *ckptDir != "" {
		benches := o.Benches
		if len(benches) == 0 {
			benches = workload.Names()
		}
		// The default engine is recorded as the field's absence, so default
		// runs write grid.json byte-identical to pre-fidelity builds.
		fidDesc := ""
		if fid != sim.FidelityFull {
			fidDesc = string(fid)
		}
		desc := experiment.GridDesc{Tool: "tcpfigs", Experiment: *exp,
			Instructions: *n, Warmup: *warm, WarmupFidelity: fidDesc,
			Seed: *seed, Benches: benches, WarmFork: *warmFork}
		if err := experiment.EnsureGrid(*ckptDir, desc, !*resume && !workerMode && !*gather); err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			var gm *experiment.GridMismatchError
			if errors.As(err, &gm) {
				return 2
			}
			return 1
		}
		o.Runner.SetCheckpointDir(*ckptDir)
		store, err := experiment.NewResultStore(*ckptDir, *resume || workerMode || *gather)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			return 1
		}
		o.Runner.SetResultStore(store)

		if workerMode {
			id := *workerID
			if id == "" {
				host, _ := os.Hostname()
				if host == "" {
					host = "worker"
				}
				id = fmt.Sprintf("%s-%d", host, os.Getpid())
			}
			claims, err = distrib.NewStore(*ckptDir, id, *leaseTTL, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcpfigs:", err)
				return 1
			}
			if *flight {
				rec := distrib.NewRecorder(*ckptDir, id, nil, 0)
				claims.SetRecorder(rec)
				store.SetRecorder(rec)
			}
			o.Runner.SetClaims(claims)
		}
		if *gather {
			o.Runner.SetStrictGather(true)
		}
		if *statusAddr != "" {
			srv := fleetobs.NewServer(*ckptDir, nil, 0)
			ln, err := net.Listen("tcp", *statusAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcpfigs:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "tcpfigs: fleet status on http://%s\n", ln.Addr())
			go srv.Serve(ln) //nolint:errcheck // listener failure only loses the status view
			defer srv.Close()
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
			"fig7", "fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15", "coverage", "ablations"}
	}

	bad := false
	emit := func(t *stats.Table) {
		if *asCSV {
			if err := t.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tcpfigs:", err)
				bad = true
			}
			return
		}
		t.WriteTo(os.Stdout) //nolint:errcheck
	}

	var prof map[string]profiler.Summary
	needProfile := func() map[string]profiler.Summary {
		if prof == nil {
			fmt.Fprintln(os.Stderr, "tcpfigs: profiling miss streams (shared across fig2-7, fig15)...")
			prof = experiment.ProfileAll(o)
		}
		return prof
	}

	// A strict gather over an incomplete grid raises
	// *experiment.IncompleteGridError through the runner; surface it as an
	// ordinary error instead of a crash.
	runExp := func(id string) (err error) {
		defer func() {
			if p := recover(); p != nil {
				if ige, ok := p.(*experiment.IncompleteGridError); ok {
					err = ige
					return
				}
				panic(p)
			}
		}()
		switch id {
		case "table1":
			emit(experiment.Table1())
		case "fig1":
			emit(experiment.Fig01IdealL2(o))
		case "fig2":
			emit(experiment.Fig02TagStats(o, needProfile()))
		case "fig3":
			emit(experiment.Fig03AddrStats(o, needProfile()))
		case "fig4":
			emit(experiment.Fig04TagSpread(o, needProfile()))
		case "fig5":
			emit(experiment.Fig05SeqRatio(o, needProfile()))
		case "fig6":
			emit(experiment.Fig06SeqStats(o, needProfile()))
		case "fig7":
			emit(experiment.Fig07SeqSpread(o, needProfile()))
		case "fig11":
			emit(experiment.Fig11IPC(o))
		case "fig12":
			emit(experiment.Fig12Traffic(o))
		case "fig13a":
			fmt.Println("== Figure 13 (top): mean IPC vs PHT size ==")
			for _, s := range experiment.Fig13PHTSize(o) {
				fmt.Println(s.String())
			}
		case "fig13b":
			fmt.Println("== Figure 13 (bottom): mean IPC vs miss-index bits ==")
			fmt.Println(experiment.Fig13IndexBits(o).String())
		case "fig14":
			emit(experiment.Fig14Hybrid(o))
		case "fig15":
			emit(experiment.Fig15Strided(o, needProfile()))
		case "coverage":
			emit(experiment.CoverageComparison(o))
		case "ablations":
			fmt.Println("== Ablations (DESIGN.md A1-A5) ==")
			fmt.Println(experiment.AblationTHTDepth(o).String())
			fmt.Println(experiment.AblationPHTAssoc(o).String())
			fmt.Println(experiment.AblationHashing(o).String())
			fmt.Println(experiment.AblationMultiTarget(o).String())
			emit(experiment.AblationClassicBaselines(o))
			emit(experiment.AblationCriticalFilter(o))
			emit(experiment.AblationStrideAssist(o))
			emit(experiment.AblationPlacement(o))
			fmt.Println(experiment.AblationBranchPredictors(o).String())
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	for _, id := range ids {
		if err := runExp(id); err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			var ige *experiment.IncompleteGridError
			if errors.As(err, &ige) {
				// List every discovered hole and its last-known holder so
				// the operator knows which worker to restart.
				if herr := fleetobs.WriteHoles(os.Stderr, *ckptDir); herr != nil {
					fmt.Fprintln(os.Stderr, "tcpfigs:", herr)
				}
				return 1
			}
			return 2
		}
		if bad {
			return 1
		}
		fmt.Println()
	}
	if simulated, reused := o.Runner.BaselineStats(); reused > 0 {
		fmt.Fprintf(os.Stderr, "tcpfigs: baseline cache: %d simulated, %d reused\n",
			simulated, reused)
	}
	if warmups, forks := o.Runner.WarmForkStats(); forks > 0 {
		fmt.Fprintf(os.Stderr, "tcpfigs: warm fork: %d warmups simulated, %d grid points forked\n",
			warmups, forks)
	}
	if hits := o.Runner.StoreStats(); hits > 0 {
		fmt.Fprintf(os.Stderr, "tcpfigs: %d jobs answered from result manifests\n", hits)
	}
	if claims != nil {
		st := claims.Stats()
		fmt.Fprintf(os.Stderr, "tcpfigs: worker %s: %d claimed, %d conflicts, %d stolen (%d races), %d heartbeats, %d lost, %d waits\n",
			claims.Worker(), st.Claims, st.ClaimConflicts, st.Steals, st.StealRaces,
			st.Heartbeats, st.LeasesLost, st.WaitPolls)
	}
	return 0
}

// renderReport prints a telemetry report written by `tcpsim -json` or
// `tcpsweep -json` as the same table/series text the experiments emit.
func renderReport(path string, asCSV bool) error {
	rep, err := telemetry.ReadReportFile(path)
	if err != nil {
		return err
	}
	emit := func(t *stats.Table) error {
		if asCSV {
			return t.WriteCSV(os.Stdout)
		}
		t.WriteTo(os.Stdout) //nolint:errcheck
		fmt.Println()
		return nil
	}

	fmt.Printf("report: tool=%s schema=%s runs=%d sweeps=%d tables=%d\n\n",
		rep.Tool, rep.Schema, len(rep.Runs), len(rep.Sweeps), len(rep.Tables))

	for _, run := range rep.Runs {
		head := stats.NewTable(
			fmt.Sprintf("run: %s / %s (n=%d warmup=%d seed=%d)",
				run.Benchmark, run.Prefetcher, run.Instructions, run.Warmup, run.Seed),
			"metric", "value")
		head.AddRowf("ipc", run.IPC)
		for _, m := range run.Metrics {
			if strings.HasPrefix(m.Name, "run.") {
				head.AddRowf(m.Name, m.Value)
			}
		}
		if err := emit(head); err != nil {
			return err
		}

		if len(run.Series) > 0 {
			st := stats.NewTable("sampled time series",
				"series", "samples", "first", "last", "min", "max")
			for _, ts := range run.Series {
				lo, hi := seriesExtrema(ts.Values)
				first, last := 0.0, 0.0
				if len(ts.Values) > 0 {
					first, last = ts.Values[0], ts.Values[len(ts.Values)-1]
				}
				st.AddRowf(ts.Name, len(ts.Values), first, last, lo, hi)
			}
			if err := emit(st); err != nil {
				return err
			}
		}
		for _, ph := range run.Phases {
			fmt.Printf("phase %-8s at cycle %d (instruction %d)\n",
				ph.Name, ph.Cycle, ph.Instructions)
		}
		if run.TraceWritten > 0 || run.TraceDropped > 0 {
			fmt.Printf("trace: %d events written, %d dropped\n",
				run.TraceWritten, run.TraceDropped)
		}
		fmt.Println()
	}

	for _, sw := range rep.Sweeps {
		s := stats.Series{Name: sw.Name, Labels: sw.Labels, Values: sw.Values}
		fmt.Println(s.String())
	}
	if len(rep.Sweeps) > 0 {
		fmt.Println()
	}

	for _, td := range rep.Tables {
		t := stats.NewTable(td.Title, td.Headers...)
		for _, row := range td.Rows {
			t.AddRow(row...)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if rep.GeomeanClamped > 0 {
		fmt.Printf("warning: %d non-positive geomean inputs were clamped\n",
			rep.GeomeanClamped)
	}
	return nil
}

func seriesExtrema(vs []float64) (lo, hi float64) {
	for i, v := range vs {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
