// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed number of rounds, checks every simulated result against golden
// and self-consistency references, and prints its metrics by name with their
// units. The last line of standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is traced layer by layer and the metrics are the per-layer ones.
// README.md documents the workloads, the metrics and which layer moves
// which end-to-end number.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its runner and to the host time one
// of its rounds took on the reference host (a shared 2-vCPU x86-64 VM).
// -seconds is turned into a number of rounds through that constant, not
// through the measured speed, so a faster or slower program takes the same
// number of samples.
var workloads = map[string]struct {
	run          func(*bench) error
	roundSeconds float64
}{
	"miss-heavy":    {func(b *bench) error { return runSim(b, missHeavy) }, 1.0},
	"compute-bound": {func(b *bench) error { return runSim(b, computeBound) }, 0.25},
	"grid":          {runGrid, 1.25},
	"sweepd":        {runSweepd, 1.85},
}

const (
	// minRounds is the fewest rounds a run takes, whatever -seconds says.
	minRounds = 3
	// maxRun stops a run that is so slow it would miss the time a benchmark
	// run is allowed; it then reports the rounds that completed.
	maxRun = 150 * time.Second
	// setupReps is how many times a round repeats its set-up, so setup_s is
	// a median over many set-ups rather than one short, noisy reading.
	setupReps = 20
)

// bench is one workload run: its settings, its verifier and what it
// measured.
type bench struct {
	workload string
	seed     uint64
	rounds   int // operation rounds the run takes
	trace    bool
	work     string // scratch directory, removed when the run ends

	verify *verifier

	attempted, failed int
	errs              []string
	metrics           map[string]metric
	sampleCounts      string // what the end-to-end figures were taken over
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// op records one attempted operation and whether it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 20 {
			b.errs = append(b.errs, err.Error())
		}
	}
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: miss-heavy | compute-bound | grid | sweepd")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 20, "nominal host seconds of the run; sets its number of rounds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root     = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
		write    = flag.Bool("write-goldens", false, "record this workload's counters for -seed into perfbench/goldens.json instead of measuring")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root, *write); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, trace bool, root string, write bool) error {
	goldenPath := filepath.Join(root, "perfbench", "goldens.json")
	gs, err := loadGoldens(goldenPath)
	if write && errors.Is(err, os.ErrNotExist) {
		gs, err = goldenSet{}, nil
	}
	if err != nil {
		return err
	}
	b, err := newBench(workload, seed, seconds, trace, root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(b.work)
	if write {
		b.rounds = 1
	} else {
		b.verify = newVerifier(gs.entry(workload, seed))
	}
	if err := b.run(); err != nil {
		return err
	}
	if write {
		gs.record(workload, seed, b.verify)
		return gs.save(goldenPath)
	}
	b.report(os.Stdout)
	return nil
}

// run measures the workload and, when traced, completes the per-layer set.
func (b *bench) run() error {
	if err := workloads[b.workload].run(b); err != nil {
		return err
	}
	if b.trace {
		b.finishLayers()
	}
	return nil
}

func newBench(workload string, seed uint64, seconds float64, trace bool, root string) (*bench, error) {
	w, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 || math.IsInf(seconds, 0) || math.IsNaN(seconds) {
		return nil, fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	dir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(dir, "work-"+workload+"-")
	if err != nil {
		return nil, err
	}
	return &bench{
		workload: workload, seed: seed, trace: trace, work: work,
		rounds:  max(minRounds, int(math.Round(seconds/w.roundSeconds))),
		verify:  newVerifier(nil),
		metrics: make(map[string]metric),
	}, nil
}

// report prints the host record, every metric with its unit, the verdict,
// and last the one-line JSON result.
func (b *bench) report(f *os.File) {
	host, _ := json.Marshal(hostInfo())
	golden := "golden entry for this seed"
	if b.verify.golden == nil {
		golden = "no golden entry for this seed: self-consistency checks only"
	}
	fmt.Fprintf(f, "# workload %s seed %d trace %v rounds %d host %s\n", b.workload, b.seed, b.trace, b.rounds, host)
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(f, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if b.sampleCounts != "" {
		fmt.Fprintln(f, "# samples:", b.sampleCounts)
	}
	for _, e := range b.errs {
		fmt.Fprintln(f, "# FAILED:", e)
	}
	fmt.Fprintf(f, "# correct %v attempted %d failed %d error_rate %g (%s)\n",
		b.failed == 0, b.attempted, b.failed, b.errorRate(), golden)
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, b.metrics})
	fmt.Fprintln(f, string(out))
}

func (b *bench) errorRate() float64 {
	if b.attempted == 0 {
		return 1
	}
	return float64(b.failed) / float64(b.attempted)
}

// hostInfo records where a result was measured.
func hostInfo() map[string]any {
	host, _ := os.Hostname()
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"host": host, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH, "commit": commit,
	}
}

// samples are what a workload's rounds measured. Every sample is kept:
// medians and percentiles are taken over all of them.
type samples struct {
	cold  []float64 // each round's cold operation, in s
	rate  []float64 // each round's simulated Minst per host second
	warm  []float64 // every warm operation of every round, in ms
	p95   []float64 // each round's p95 of its warm operations, in ms
	setup []float64 // every set-up of every round, in s
	rss   []float64 // each round's resident-set peak, in MB
}

// endToEnd sets the metrics every untraced run reports.
func (b *bench) endToEnd(s samples) error {
	if len(s.cold) == 0 || len(s.p95) == 0 || len(s.setup) == 0 || len(s.rss) == 0 {
		return errors.New("no operation completed")
	}
	b.set("sim_mips", "Minst/s", median(s.rate))
	b.set("cold_op_s", "s", median(s.cold))
	b.set("warm_op_ms_p50", "ms", median(s.warm))
	b.set("warm_op_ms_p95", "ms", median(s.p95))
	b.set("setup_s", "s", median(s.setup))
	b.set("peak_rss_mb", "MB", median(s.rss))
	b.sampleCounts = fmt.Sprintf("rounds %d, warm operations %d, set-ups %d", len(s.cold), len(s.warm), len(s.setup))
	return nil
}

// roundP95 records the p95 of the warm operations a round added to s.warm
// from index from on. The p95 metric is the median of these over the rounds:
// on the shared host a burst of interference confined to a few rounds moved
// a p95 over all samples by up to 2x between runs, while a tail that most
// rounds show, such as the program's own GC pauses, still sets the median.
func (s *samples) roundP95(from int) {
	s.p95 = append(s.p95, percentile(s.warm[from:], 0.95))
}

// setUp times one set-up, f, and records it. Each set-up starts from a
// collected heap, so it does not pay for collecting the previous one's
// garbage.
func (s *samples) setUp(f func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := f(); err != nil {
		return err
	}
	s.setup = append(s.setup, time.Since(t0).Seconds())
	return nil
}

// more reports whether a measuring loop that started at start and has
// completed n rounds takes another.
func (b *bench) more(start time.Time, n int) bool {
	return n < b.rounds && (n == 0 || time.Since(start) < maxRun)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quiesce starts an operation round from a collected heap, so garbage of
// the previous round neither lands in its timings nor in its peak, and
// restarts the kernel's resident-set high-water mark for peakRSSMB.
func quiesce() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it the mark covers the whole process
}

// peakRSSMB is the resident-set high-water mark since the last
// quiesce, or of the whole process where /proc does not report it.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
