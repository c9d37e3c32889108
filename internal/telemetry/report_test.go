package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenReport builds a fully deterministic report exercising every part
// of the schema: the report's window and rows, counters, gauges, time
// series, phases, sweep curves and tables.
func goldenReport() *Report {
	run := NewRun(100)
	reg := run.Registry
	reg.Sub("memsys.l1").Counter("misses", "L1 demand misses").Add(250)
	reg.Sub("memsys.l1").Counter("accesses", "L1 demand accesses").Add(1000)
	reg.Sub("cpu").Counter("instructions", "retired instructions").Add(4000)
	reg.Gauge("run.ipc", "measured-window IPC").Set(1.6)

	misses := reg.Sub("memsys.l1").Counter("misses", "")
	accesses := reg.Sub("memsys.l1").Counter("accesses", "")
	run.Sampler.Ratio("memsys.l1.miss_rate", CounterValue(misses), CounterValue(accesses))
	run.Sampler.MarkPhase("warmup", 0, 0)
	run.Sampler.Sample(100, 400)
	run.Sampler.MarkPhase("measure", 150, 500)
	run.Sampler.Sample(200, 900)

	rep := NewReport("tcpsim")
	rep.Instructions, rep.Warmup, rep.Seed, rep.WarmupFidelity = 1000, 500, 1, "full"
	rep.Rows = []string{"size", "fig11"}
	rep.Runs = append(rep.Runs, run.Report("mcf", "tcp-8K", 1000, 500, 1, 1.6))
	rep.Sweeps = append(rep.Sweeps, SweepSeries{
		Name:   "mean IPC vs PHT size",
		Labels: []string{"2KB", "8KB"},
		Values: []float64{1.1, 1.25},
	})
	rep.Tables = append(rep.Tables, TableData{
		Title:   "Figure 11: IPC improvement",
		Headers: []string{"bench", "tcp-8K"},
		Rows:    [][]string{{"mcf", "14.0%"}},
	})
	return rep
}

// TestReportGolden locks the run-report JSON schema: any change to the
// serialised shape must be deliberate (regenerate with -update) and is a
// consumer-visible schema change.
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report JSON differs from golden file %s\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := goldenReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 || got.Runs[0].Benchmark != "mcf" || got.Runs[0].Prefetcher != "tcp-8K" {
		t.Errorf("round-trip runs = %+v", got.Runs)
	}
	if len(got.Runs[0].Metrics) != 4 {
		t.Errorf("metrics = %d, want 4", len(got.Runs[0].Metrics))
	}
	if len(got.Runs[0].Series) != 2 || len(got.Runs[0].Phases) != 2 {
		t.Errorf("series/phases = %d/%d", len(got.Runs[0].Series), len(got.Runs[0].Phases))
	}
	if len(got.Sweeps) != 1 || len(got.Tables) != 1 {
		t.Errorf("sweeps/tables = %d/%d", len(got.Sweeps), len(got.Tables))
	}
}

func TestReadReportRejectsBadSchema(t *testing.T) {
	if _, err := ReadReport(bytes.NewReader([]byte(`{"schema":"other/9"}`))); err == nil {
		t.Error("expected schema error")
	}
}

func TestWriteAndReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := goldenReport().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "tcpsim" {
		t.Errorf("tool = %q", rep.Tool)
	}
}
