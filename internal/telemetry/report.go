package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Schema identifies the run-report JSON schema version. Bump on
// incompatible changes; consumers check the prefix.
const Schema = "tcp-telemetry/1"

// Run bundles the instrumentation for one simulation run: the registry all
// components attach their metrics to, the event tracer, and the cycle
// sampler. Any field may be nil except Registry; use NewRun for defaults.
type Run struct {
	Registry *Registry
	Tracer   *Tracer
	Sampler  *Sampler
}

// NewRun creates a Run with a fresh registry, the no-op tracer, and a
// sampler firing every sampleEvery cycles (0 disables sampling).
func NewRun(sampleEvery int64) *Run {
	r := &Run{Registry: NewRegistry(), Tracer: Nop()}
	if sampleEvery > 0 {
		r.Sampler = NewSampler(sampleEvery, 0)
	}
	return r
}

// RunReport is the machine-readable record of one simulation run: the full
// metric registry, the sampled time series with phase boundaries, and the
// run identity.
type RunReport struct {
	Benchmark    string `json:"benchmark"`
	Prefetcher   string `json:"prefetcher"`
	Instructions uint64 `json:"instructions"`
	Warmup       uint64 `json:"warmup"`
	Seed         uint64 `json:"seed"`
	// IPC is the measured-window headline IPC.
	IPC float64 `json:"ipc"`

	Metrics []MetricValue `json:"metrics"`
	Series  []TimeSeries  `json:"series,omitempty"`
	Phases  []Phase       `json:"phases,omitempty"`

	TraceWritten uint64 `json:"trace_written,omitempty"`
	TraceDropped uint64 `json:"trace_dropped,omitempty"`
}

// Report snapshots the Run into a RunReport with the given identity.
func (r *Run) Report(bench, prefetcher string, instructions, warmup, seed uint64, ipc float64) RunReport {
	rep := RunReport{
		Benchmark:    bench,
		Prefetcher:   prefetcher,
		Instructions: instructions,
		Warmup:       warmup,
		Seed:         seed,
		IPC:          ipc,
	}
	if r.Registry != nil {
		rep.Metrics = r.Registry.Snapshot()
	}
	if r.Sampler != nil {
		rep.Series = r.Sampler.Series()
		rep.Phases = r.Sampler.Phases()
	}
	if r.Tracer != nil {
		// Flush first so Written reflects every event emitted so far, not
		// just those already drained from the buffer.
		r.Tracer.Flush()
		rep.TraceWritten = r.Tracer.Written()
		rep.TraceDropped = r.Tracer.Dropped()
	}
	return rep
}

// SweepSeries is one labelled design-space sweep curve (e.g. mean IPC vs
// PHT size) exported by cmd/tcpfigs.
type SweepSeries struct {
	Name   string    `json:"name"`
	Labels []string  `json:"labels"`
	Values []float64 `json:"values"`
}

// TableData is one experiment table exported verbatim.
type TableData struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// WorkerStats reports one distributed-sweep worker's claim-protocol
// counters (tcpfigs worker mode over a shared checkpoint
// directory; see docs/DISTRIBUTED.md). Serial and gather runs have no
// workers, so the section is absent from their reports and the gathered
// JSON stays byte-identical to a serial run's.
type WorkerStats struct {
	ID             string `json:"id"`
	Claims         uint64 `json:"claims"`
	ClaimConflicts uint64 `json:"claim_conflicts,omitempty"`
	Steals         uint64 `json:"steals,omitempty"`
	StealRaces     uint64 `json:"steal_races,omitempty"`
	Heartbeats     uint64 `json:"heartbeats,omitempty"`
	LeasesLost     uint64 `json:"leases_lost,omitempty"`
	Releases       uint64 `json:"releases,omitempty"`
	WaitPolls      uint64 `json:"wait_polls,omitempty"`
	ManifestHits   uint64 `json:"manifest_hits,omitempty"`
}

// Report is the top-level machine-readable output of a cmd/ binary: one or
// more run reports and/or sweep curves and tables.
type Report struct {
	Schema string `json:"schema"`
	// Tool names the producing binary ("tcpsim", "tcpfigs").
	Tool string `json:"tool,omitempty"`

	// The window a tcpfigs report's sweeps and tables were run at
	// (measured instructions, warmup, workload seed and warmup engine) and
	// its experiment rows in run order, so a consumer can tell which run a
	// number came from. Reports of runs, whose RunReports carry their own
	// window, leave them out.
	Instructions   uint64   `json:"instructions,omitempty"`
	Warmup         uint64   `json:"warmup,omitempty"`
	Seed           uint64   `json:"seed,omitempty"`
	WarmupFidelity string   `json:"warmup_fidelity,omitempty"`
	Rows           []string `json:"rows,omitempty"`

	Runs    []RunReport   `json:"runs,omitempty"`
	Sweeps  []SweepSeries `json:"sweeps,omitempty"`
	Tables  []TableData   `json:"tables,omitempty"`
	Workers []WorkerStats `json:"workers,omitempty"`

	// GeomeanClamped counts non-positive inputs clamped while computing
	// speedup geomeans during this process (see stats.Geomean): non-zero
	// values flag degenerate aggregate numbers.
	GeomeanClamped uint64 `json:"geomean_clamped,omitempty"`
}

// NewReport creates an empty report for the named tool.
func NewReport(tool string) *Report {
	return &Report{Schema: Schema, Tool: tool}
}

// WriteJSON writes the report, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport decodes a report from r, validating the schema.
func ReadReport(rd io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return nil, fmt.Errorf("telemetry: decoding report: %w", err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("telemetry: unsupported report schema %q (want %q)", rep.Schema, Schema)
	}
	return &rep, nil
}

// ReadReportFile decodes a report from the file at path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadReport(f)
}
