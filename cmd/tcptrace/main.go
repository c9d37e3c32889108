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

	"tagprefetch/internal/addr"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/profiling"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
	"tagprefetch/internal/workload"
)

// capture is a prefetcher-shaped tap on the miss stream.
type capture struct {
	prof  *profiler.Profiler
	w     *trace.Writer
	armed bool
	err   error // first write error; stops further dumping, reported after the run
}

func (c *capture) Name() string { return "capture" }

func (c *capture) OnMiss(m trace.Miss) []prefetch.Request {
	if !c.armed {
		return nil
	}
	c.prof.Observe(m)
	if c.w != nil && c.err == nil {
		// A failing sink must not abort mid-simulation (an os.Exit here
		// would also skip the deferred profile flush): remember the first
		// error, stop writing, and report it when the run completes.
		c.err = c.w.Write(m)
	}
	return nil
}

func (c *capture) OnAccess(addr.Addr, addr.Addr, int64, bool) []prefetch.Request { return nil }
func (c *capture) OnEvict(addr.Addr, int64, int64, int64)                        {}
func (c *capture) StorageBits() uint64                                           { return 0 }
func (c *capture) Reset()                                                        {}

// statusEvery is how many simulated cycles apart -status-addr republishes
// the registry a scrape reads.
const statusEvery = 100_000

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and trace-writer flush, truncating
// -cpuprofile/-memprofile/-o output.
func main() { os.Exit(run()) }

func run() int {
	var (
		bench    = flag.String("bench", "", "SPEC2000 benchmark to trace")
		n        = flag.Uint64("n", 1_000_000, "measured instructions")
		warm     = flag.Uint64("warmup", 2_000_000, "warmup instructions")
		fidelity = flag.String("warmup-fidelity", "full", "warmup engine: full (cycle-accurate) or fast (functional fast-forward, docs/FASTFORWARD.md)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		out      = flag.String("o", "", "dump the raw miss trace to this file")
		in       = flag.String("i", "", "analyse an existing trace file instead of simulating")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file")
		statusAddr = flag.String("status-addr", "", "serve the live memory-hierarchy metric registry as Prometheus text on this address (/metrics) while tracing")
		seqLen     = flag.Int("k", 3, "tag-sequence length (paper: 3)")
	)
	flag.Parse()

	fid, err := sim.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcptrace: -warmup-fidelity:", err)
		return 2
	}
	if *statusAddr != "" && *bench == "" {
		fmt.Fprintln(os.Stderr, "tcptrace: -status-addr requires -bench (only a live simulation has metrics to serve)")
		return 2
	}

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcptrace:", err)
		return 1
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
		spec, err := workload.Spec2000(*bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tcptrace:", err)
			return 1
		}
		cap := &capture{prof: prof, armed: *warm == 0}
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcptrace:", err)
				return 1
			}
			defer f.Close()
			cap.w = trace.NewWriter(f)
			defer cap.w.Flush() //nolint:errcheck
		}
		mem := memsys.New(memCfg, cap)
		core := cpu.New(cpu.Config{}, mem)
		// A scrape snapshots the hierarchy's registry, which the core
		// republishes every statusEvery cycles through a probe-less
		// sampler; between scrapes the simulation pays nothing.
		if *statusAddr != "" {
			reg := telemetry.NewRegistry()
			mem.AttachTelemetry(reg.Sub("memsys"), telemetry.Nop())
			core.OnPublish(mem.PublishCounters)
			core.UseSampler(telemetry.NewSampler(statusEvery, 1))
			ln, err := net.Listen("tcp", *statusAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tcptrace:", err)
				return 1
			}
			mux := http.NewServeMux()
			mux.Handle("/metrics", telemetry.PromHandler(func() []telemetry.PromSet {
				return []telemetry.PromSet{telemetry.PromFromRegistry(reg,
					telemetry.PromLabel{Name: "bench", Value: *bench})}
			}))
			fmt.Fprintf(os.Stderr, "tcptrace: metrics on http://%s/metrics\n", ln.Addr())
			srv := &http.Server{Handler: mux}
			go srv.Serve(ln) //nolint:errcheck // listener failure only loses the metrics view
			defer srv.Close()
		}
		gen := workload.New(spec, *seed)
		// Arm the capture tap at the warmup/measure boundary.
		arm := func(int64) { cap.armed = true }
		if fid == sim.FidelityFast {
			// The warmup misses only train the profiler's armed==false tap,
			// so the functional engine reproduces the measured trace exactly
			// (docs/FASTFORWARD.md).
			core.RunMeasuredFast(gen, *warm, *n, arm)
		} else {
			core.RunMeasured(gen, *warm, *n, arm)
		}
		if cap.err != nil {
			fmt.Fprintln(os.Stderr, "tcptrace: write:", cap.err)
			return 1
		}
		if cap.w != nil {
			fmt.Fprintf(os.Stderr, "tcptrace: wrote %d miss records to %s\n", cap.w.Count(), *out)
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
