// Command tcpfigs regenerates the paper's tables and figures.
//
//	tcpfigs -exp all                # everything (minutes at full scale)
//	tcpfigs -exp fig11              # the TCP vs DBCP comparison
//	tcpfigs -exp fig13a -n 200000   # PHT size sweep, quick scale
//
// Experiment ids: table1, fig1, fig2 ... fig7, fig11, fig12, fig13a,
// fig13b, fig14, fig15, coverage. The DESIGN.md ablations are tcpsweep
// sweeps (tcpsweep -sweep k, assoc, ...), one results/aN_run.txt each.
//
// With -report, tcpfigs instead renders a machine-readable telemetry
// report produced by `tcpsim -json` or `tcpsweep -json`: per-run headline
// metrics, sampled time series with phase boundaries, sweep curves and
// tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/runflags"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
)

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and truncate -cpuprofile/-memprofile.
func main() { os.Exit(run()) }

// allIDs is every experiment id, in the order -exp all runs them.
var allIDs = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15", "coverage"}

func run() int {
	exp := flag.String("exp", "all", "experiment id (table1, fig1..fig7, fig11..fig15, coverage, all)")
	asCSV := flag.Bool("csv", false, "emit table experiments as CSV instead of aligned text")
	reportIn := flag.String("report", "", "render a telemetry report (from tcpsim/tcpsweep -json) instead of running experiments")
	rf := runflags.Register(flag.CommandLine, "tcpfigs")
	flag.Parse()

	if *reportIn != "" {
		if err := renderReport(*reportIn, *asCSV); err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			return 1
		}
		return 0
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = allIDs
	} else if !slices.Contains(allIDs, *exp) {
		fmt.Fprintf(os.Stderr, "tcpfigs: unknown experiment %q\n", *exp)
		return 2
	}
	// One runner for every figure, so each point is simulated once: fig1's
	// baselines and fig11's TCP points are reused by fig12, fig13 and fig14
	// through the runner's memo.
	r, stopProf, err := rf.Bind(*exp)
	if err != nil {
		return rf.Exit(err)
	}
	defer stopProf()
	o := r.Options

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
	// sweep prints a Figure 13 curve as tcpsweep does.
	sweep := func(name string) {
		sw, _ := experiment.LookupSweep(name) //nolint:errcheck // names from the table
		sw.Run(o).Print(os.Stdout)
	}

	var prof map[string]profiler.Summary
	needProfile := func() map[string]profiler.Summary {
		if prof == nil {
			fmt.Fprintln(os.Stderr, "tcpfigs: profiling miss streams (shared across fig2-7, fig15)...")
			prof = experiment.ProfileAll(o)
		}
		return prof
	}

	runExp := func(id string) {
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
			sweep("size")
		case "fig13b":
			fmt.Println("== Figure 13 (bottom): mean IPC vs miss-index bits ==")
			sweep("nbits")
		case "fig14":
			emit(experiment.Fig14Hybrid(o))
		case "fig15":
			emit(experiment.Fig15Strided(o, needProfile()))
		case "coverage":
			emit(experiment.CoverageComparison(o))
		}
	}

	for _, id := range ids {
		if err := experiment.CatchIncomplete(func() { runExp(id) }); err != nil {
			return rf.Exit(err)
		}
		if bad {
			return 1
		}
		fmt.Println()
	}
	r.PrintStats()
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
				var first, last, lo, hi float64
				if vs := ts.Values; len(vs) > 0 {
					first, last, lo, hi = vs[0], vs[len(vs)-1], slices.Min(vs), slices.Max(vs)
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
