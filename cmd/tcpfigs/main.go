// Command tcpfigs regenerates the paper's tables and figures and the
// DESIGN.md ablations, one row of the experiment table each.
//
//	tcpfigs -exp all                # the paper's evaluation (minutes at full scale)
//	tcpfigs -exp fig11              # the TCP vs DBCP comparison
//	tcpfigs -exp size -n 200000     # Figure 13's PHT size sweep, quick scale
//	tcpfigs -exp k -benches swim    # ablation A1 (THT depth) on one benchmark
//	tcpfigs -exp size -json out.json   # machine-readable curves and tables
//	tcpfigs -exp size -warmfork -checkpoint-dir ckpt   # warm once, fork grid
//	tcpfigs -exp size -checkpoint-dir ckpt -resume     # resume a killed run
//
// Rows: table1, fig1 ... fig7, fig11, fig12, size and nbits (Figure 13
// top and bottom), fig14, fig15, coverage, then the ablations k, assoc,
// hash, targets, baselines, critfilter, strideassist, placement and
// branchpred (A1-A9). "all" runs the paper's rows, table1 to coverage.
//
// Several hosts sharing storage can split one grid (docs/DISTRIBUTED.md):
//
//	tcpfigs -exp size -checkpoint-dir shared -workers 3 -worker-id a
//	tcpfigs -exp size -checkpoint-dir shared -workers 3 -worker-id b
//	tcpfigs -exp size -checkpoint-dir shared -gather   # assemble output
//
// With -report, tcpfigs instead renders a machine-readable telemetry
// report produced by `tcpsim -json` or `tcpfigs -json`: per-run headline
// metrics, sampled time series with phase boundaries, sweep curves and
// tables.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/runflags"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
)

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and truncate -cpuprofile/-memprofile.
func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(experiment.RowNames(), " | ")+" | all")
	asCSV := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	jsonOut := flag.String("json", "", "write the rows' curves and tables as a machine-readable report to this file")
	reportIn := flag.String("report", "", "render a telemetry report (from tcpsim/tcpfigs -json) instead of running experiments")
	rf := runflags.Register(flag.CommandLine, "tcpfigs")
	flag.Parse()

	if *reportIn != "" {
		if err := renderReport(*reportIn, *asCSV); err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			return 1
		}
		return 0
	}

	all := *exp == "all"
	rows := experiment.Rows[:experiment.PaperRows]
	if !all {
		row, err := experiment.Lookup(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			return 2
		}
		rows = []experiment.Row{row}
	}
	// One runner for every row, so each point is simulated once: fig1's
	// baselines and fig11's TCP points are reused by fig12, size and fig14,
	// and one miss-stream job per bench serves fig2-fig7, fig15 and
	// coverage, through the runner's memo.
	r, stopProf, err := rf.Bind(*exp)
	if err != nil {
		return rf.Exit(err)
	}
	defer stopProf()

	// Under -gather every row renders into out, which is printed only
	// once the gather has found every point; otherwise each row prints
	// as it completes.
	var out bytes.Buffer
	flush := func() bool {
		_, err := out.WriteTo(os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
		}
		return err == nil
	}
	report := telemetry.NewReport("tcpfigs")
	report.Instructions, report.Warmup, report.Seed = r.Options.Instructions, r.Options.Warmup, r.Options.Seed
	report.WarmupFidelity = string(r.Options.WarmupFidelity)
	for _, row := range rows {
		report.Rows = append(report.Rows, row.Name)
		res := row.Run(r.Options)
		// A single row prints exactly Result.Print; all prints a
		// series-only row under its title and a blank line after each.
		if all && res.Table == nil {
			fmt.Fprintf(&out, "== %s ==\n", row.Title)
		}
		if *asCSV && res.Table != nil {
			res.Table.WriteCSV(&out) //nolint:errcheck // a bytes.Buffer cannot fail
		} else {
			res.Print(&out)
		}
		if all {
			out.WriteByte('\n')
		}
		for _, s := range res.Series {
			report.Sweeps = append(report.Sweeps, telemetry.SweepSeries{
				Name: s.Name, Labels: s.Labels, Values: s.Values})
		}
		if t := res.Table; t != nil {
			report.Tables = append(report.Tables, telemetry.TableData{
				Title: t.Title(), Headers: t.Headers(), Rows: t.Rows()})
		}
		if r.Gather == nil && !flush() {
			return 1
		}
	}
	if err := r.Gather.Err(); err != nil {
		return rf.Exit(err)
	}
	if !flush() {
		return 1
	}
	report.Workers = append(report.Workers, r.PrintStats()...)

	if *jsonOut != "" {
		report.GeomeanClamped = stats.GeomeanClampCount()
		if err := report.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "tcpfigs:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tcpfigs: report written to %s\n", *jsonOut)
	}
	return 0
}

// renderReport prints a telemetry report written by `tcpsim -json` or
// `tcpfigs -json` as the same table/series text the experiments emit.
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

	fmt.Printf("report: tool=%s schema=%s runs=%d sweeps=%d tables=%d\n",
		rep.Tool, rep.Schema, len(rep.Runs), len(rep.Sweeps), len(rep.Tables))
	if rep.Instructions > 0 {
		fmt.Printf("window: n=%d warmup=%d seed=%d fidelity=%s rows=%s\n",
			rep.Instructions, rep.Warmup, rep.Seed, rep.WarmupFidelity, strings.Join(rep.Rows, ","))
	}
	fmt.Println()

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
