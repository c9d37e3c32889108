// Command tcpsweep explores the TCP design space: the Figure 13 PHT-size
// and index-bits sweeps, and the DESIGN.md ablations (THT depth, PHT
// associativity, hash function, multi-target entries).
//
//	tcpsweep -sweep size               # Figure 13 (top)
//	tcpsweep -sweep nbits              # Figure 13 (bottom)
//	tcpsweep -sweep k -benches swim    # THT depth on one benchmark
//	tcpsweep -sweep size -json out.json   # machine-readable sweep curves
//	tcpsweep -sweep size -jobs 1          # strictly serial execution
//	tcpsweep -sweep size -warmfork -checkpoint-dir ckpt   # warm once, fork grid
//	tcpsweep -sweep size -checkpoint-dir ckpt -resume     # resume a killed sweep
//
// Several hosts sharing storage can split one grid (docs/DISTRIBUTED.md):
//
//	tcpsweep -sweep size -checkpoint-dir shared -workers 3 -worker-id a
//	tcpsweep -sweep size -checkpoint-dir shared -workers 3 -worker-id b
//	tcpsweep -sweep size -checkpoint-dir shared -gather   # assemble output
package main

import (
	"flag"
	"fmt"
	"os"
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
	sweep := flag.String("sweep", "size", "sweep: "+strings.Join(experiment.SweepNames(), " | "))
	jsonOut := flag.String("json", "", "write the sweep's curves and tables as a machine-readable report to this file")
	rf := runflags.Register(flag.CommandLine, "tcpsweep")
	flag.Parse()

	sw, err := experiment.LookupSweep(*sweep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpsweep:", err)
		return 2
	}
	r, stopProf, err := rf.Bind(*sweep)
	if err != nil {
		return rf.Exit(err)
	}
	defer stopProf()

	var res experiment.SweepResult
	if err := experiment.CatchIncomplete(func() { res = sw.Run(r.Options) }); err != nil {
		return rf.Exit(err)
	}
	res.Print(os.Stdout)

	report := telemetry.NewReport("tcpsweep")
	for _, s := range res.Series {
		report.Sweeps = append(report.Sweeps, telemetry.SweepSeries{
			Name: s.Name, Labels: s.Labels, Values: s.Values})
	}
	if t := res.Table; t != nil {
		report.Tables = append(report.Tables, telemetry.TableData{
			Title: t.Title(), Headers: t.Headers(), Rows: t.Rows()})
	}
	report.Workers = append(report.Workers, r.PrintStats()...)

	if *jsonOut != "" {
		report.GeomeanClamped = stats.GeomeanClampCount()
		if err := report.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "tcpsweep:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "tcpsweep: report written to %s\n", *jsonOut)
	}
	return 0
}
