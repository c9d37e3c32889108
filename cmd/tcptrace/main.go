// Command tcptrace captures and analyses L1 data-cache miss traces — the
// methodology of Section 3 of the paper.
//
//	tcptrace -bench swim                  # print the locality summary
//	tcptrace -bench swim -o swim.trc      # also dump the raw miss trace
//	tcptrace -i swim.trc                  # re-analyse a dumped trace
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"tagprefetch/internal/memsys"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/runflags"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
	"tagprefetch/internal/workload"
)

// statusEvery is how many simulated cycles apart -status-addr republishes
// the registry a scrape reads.
const statusEvery = 100_000

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and trace-writer flush, truncating
// -cpuprofile/-memprofile/-o output.
func main() { os.Exit(run()) }

func run() int {
	var (
		win   = runflags.RegisterWindow(flag.CommandLine, "tcptrace")
		bench = flag.String("bench", "", "SPEC2000 benchmark to trace")
		out   = flag.String("o", "", "dump the raw miss trace to this file")
		in    = flag.String("i", "", "analyse an existing trace file instead of simulating")

		statusAddr = flag.String("status-addr", "", "serve the run's live metric registry as Prometheus text on this address (/metrics) while tracing")
		seqLen     = flag.Int("k", 3, fmt.Sprintf("tag-sequence length, 2 to %d (paper: 3)", profiler.MaxSeqLen))
	)
	flag.Parse()

	if *seqLen < 2 || *seqLen > profiler.MaxSeqLen {
		fmt.Fprintf(os.Stderr, "tcptrace: -k %d outside [2, %d]\n", *seqLen, profiler.MaxSeqLen)
		return 2
	}

	if *statusAddr != "" && *bench == "" {
		fmt.Fprintln(os.Stderr, "tcptrace: -status-addr requires -bench (only a live simulation has metrics to serve)")
		return 2
	}
	cfg, stopProf, err := win.Bind()
	if err != nil {
		return win.Exit(err)
	}
	defer stopProf()

	memCfg := memsys.DefaultConfig()
	prof := profiler.New(memCfg.L1D, *seqLen)

	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcptrace:", err)
			return 1
		}
		defer f.Close()
		r := trace.NewReader(f, memCfg.L1D)
		for {
			m, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcptrace:", err)
				return 1
			}
			prof.Observe(m)
		}
	case *bench != "":
		// Reject a bad name before -o or -status-addr touch anything.
		if _, err := workload.Spec2000(*bench); err != nil {
			fmt.Fprintln(os.Stderr, "tcptrace:", err)
			return 1
		}
		// A scrape snapshots the run's registry, which the core republishes
		// every statusEvery cycles; between scrapes the simulation pays
		// nothing.
		var tel *telemetry.Run
		if *statusAddr != "" {
			tel = telemetry.NewRun(statusEvery)
			ln, err := net.Listen("tcp", *statusAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcptrace:", err)
				return 1
			}
			mux := http.NewServeMux()
			mux.Handle("/metrics", telemetry.PromHandler(func() []telemetry.PromSet {
				return []telemetry.PromSet{telemetry.PromFromRegistry(tel.Registry,
					telemetry.PromLabel{Name: "bench", Value: *bench})}
			}))
			fmt.Fprintf(os.Stderr, "tcptrace: metrics on http://%s/metrics\n", ln.Addr())
			srv := &http.Server{Handler: mux}
			go srv.Serve(ln) //nolint:errcheck // listener failure only loses the metrics view
			defer srv.Close()
		}
		var w *trace.Writer
		var werr error // first write error; stops further dumping, reported after the run
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcptrace:", err)
				return 1
			}
			defer f.Close()
			w = trace.NewWriter(f)
			defer w.Flush() //nolint:errcheck
		}
		// The warmup engine follows the contract of docs/FASTFORWARD.md.
		_, err := sim.ObserveMisses(*bench, cfg, tel, func(m trace.Miss) {
			prof.Observe(m)
			if w != nil && werr == nil {
				// A failing sink must not abort mid-simulation (an os.Exit
				// here would also skip the deferred profile flush): remember
				// the first error, stop writing, and report it after the run.
				werr = w.Write(m)
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcptrace:", err)
			return 1
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "tcptrace: write:", werr)
			return 1
		}
		if w != nil {
			fmt.Fprintf(os.Stderr, "tcptrace: wrote %d miss records to %s\n", w.Count(), *out)
		}
	default:
		fmt.Fprintln(os.Stderr, "tcptrace: need -bench or -i; -h for help")
		return 2
	}

	s := prof.Summarize()
	t := stats.NewTable("Section 3 locality summary", "statistic", "value")
	t.AddRow("L1D misses", fmt.Sprintf("%d", s.Misses))
	t.AddRow("unique tags (Fig 2)", fmt.Sprintf("%d", s.UniqueTags))
	t.AddRow("mean recurrences per tag (Fig 2)", fmt.Sprintf("%.1f", s.TagRecurrence))
	t.AddRow("unique block addresses (Fig 3)", fmt.Sprintf("%d", s.UniqueAddrs))
	t.AddRow("mean recurrences per address (Fig 3)", fmt.Sprintf("%.1f", s.AddrRecurrence))
	t.AddRow("mean sets per tag (Fig 4)", fmt.Sprintf("%.1f", s.SetsPerTag))
	t.AddRow("mean per-set tag recurrence (Fig 4)", fmt.Sprintf("%.1f", s.TagPerSetRecur))
	t.AddRow(fmt.Sprintf("unique %d-tag sequences (Fig 6)", *seqLen), fmt.Sprintf("%d", s.UniqueSeqs))
	t.AddRow("sequences observed / possible (Fig 5)", stats.Percent(s.SeqRatio))
	t.AddRow("mean recurrences per sequence (Fig 6)", fmt.Sprintf("%.1f", s.SeqRecurrence))
	t.AddRow("mean sets per sequence (Fig 7)", fmt.Sprintf("%.1f", s.SetsPerSeq))
	t.AddRow("mean per-set sequence recurrence (Fig 7)", fmt.Sprintf("%.1f", s.SeqPerSetRecur))
	t.AddRow("strided sequences (Fig 15)", stats.Percent(s.StridedFrac))
	t.WriteTo(os.Stdout) //nolint:errcheck
	return 0
}
