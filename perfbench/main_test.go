package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// quickRun runs a workload in-process with the smallest sample counts,
// checking against the committed goldens for seed 1.
func quickRun(t *testing.T, workload string, trace bool, g *goldenEntry) *bench {
	t.Helper()
	b, err := newBench(workload, 1, 0.001, trace, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b.rounds = 1
	b.verify = newVerifier(g)
	if err := b.run(); err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return b
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json untraced and
// traced and checks each emits exactly the metrics the file names, with
// their units, and passes its correctness gate.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	gs, err := loadGoldens("goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			b := quickRun(t, w.Name, trace, gs.entry(w.Name, 1))
			if b.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, b.failed, b.attempted, b.errs)
			}
			if len(b.metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", w.Name, trace, len(b.metrics), len(want))
			}
			for _, m := range want {
				got, ok := b.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s emitted %v (%+v), want unit %q", w.Name, trace, m.Name, ok, got, m.Unit)
				}
			}
		}
	}
}

// TestWrongGoldenFails checks that a golden counter off by one fails the
// run's operations.
func TestWrongGoldenFails(t *testing.T) {
	gs, err := loadGoldens("goldens.json")
	if err != nil {
		t.Fatal(err)
	}
	g := gs.entry("compute-bound", 1)
	if g == nil {
		t.Fatal("no compute-bound golden for seed 1")
	}
	wrong := &goldenEntry{Sims: map[string]counters{}}
	for k, c := range g.Sims {
		c.Cycles++
		wrong.Sims[k] = c
	}
	if b := quickRun(t, "compute-bound", false, g); b.errorRate() != 0 {
		t.Fatalf("true golden: error_rate %v: %v", b.errorRate(), b.errs)
	}
	if b := quickRun(t, "compute-bound", false, wrong); b.errorRate() == 0 {
		t.Fatal("a wrong golden left error_rate at 0")
	}
}

// TestMissingGoldensFail checks that a run whose golden file is missing
// fails rather than running with self-consistency checks only.
func TestMissingGoldensFail(t *testing.T) {
	err := run("compute-bound", 1, 1, false, t.TempDir(), false)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("run without goldens.json: %v, want a not-exist error", err)
	}
}
