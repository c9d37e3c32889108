package sim

import (
	"bytes"
	"fmt"
	"testing"

	"tagprefetch/internal/telemetry"
)

// The determinism gate's window. The dead-block predictor's 16,384-entry
// lifetime table does not fill within 100 k instructions of mcf, so only a
// longer run evicts from it: a victim picked in map order made Hybrid-8K's
// IPC vary between runs, and shows at this window in the image and the
// CPU counters at both fidelities.
const determinismWarmup, determinismMeasure = 133_000, 67_000

// runOutputs runs r's machine on mcf to the end of the determinism window
// with a telemetry sampler attached, and returns what the run produces:
// the tcp-telemetry/1 run report, the Result and the end-of-run
// checkpoint image.
func runOutputs(t *testing.T, r gateRow) (report, result, image []byte) {
	t.Helper()
	cfg := r.cfg
	cfg.Warmup, cfg.Instructions = determinismWarmup, determinismMeasure
	m := mustMachine(t, "mcf", r.f, cfg)
	tel := telemetry.NewRun(5_000)
	m.Observe(tel)
	res := m.Run()
	rep := telemetry.NewReport("determinism-gate")
	rep.Runs = append(rep.Runs, tel.Report("mcf", r.f.Name, cfg.Instructions, cfg.Warmup, cfg.Seed, res.IPC()))
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), fmt.Appendf(nil, "%#v", res), img
}

// TestDeterminismGate: two fresh machines built from the same row, run in
// one process, must agree byte for byte on the run report (metrics,
// sampled series and phase marks), the Result and the end-of-run
// checkpoint image, for every gate row. Map iteration order, the wall
// clock and unseeded randomness all vary between the two runs, so a
// result that depends on any of them shows as a difference; the image
// catches state that diverges before it reaches a counter. Rows run in
// parallel with each other, each pair in sequence.
func TestDeterminismGate(t *testing.T) {
	for _, r := range gateRows() {
		t.Run(r.label, func(t *testing.T) {
			t.Parallel()
			repA, resA, imgA := runOutputs(t, r)
			repB, resB, imgB := runOutputs(t, r)
			if !bytes.Equal(resA, resB) {
				t.Errorf("results differ between identical runs:\n%s\n%s", resA, resB)
			}
			if !bytes.Equal(repA, repB) {
				t.Error("run reports differ between identical runs")
			}
			if !bytes.Equal(imgA, imgB) {
				t.Error("end-of-run checkpoint images differ between identical runs")
			}
		})
	}
}

// reportBytes runs (bench, cfg, f) once with full telemetry armed and
// renders the machine-readable run report.
func reportBytes(t *testing.T, bench string, f Factory) []byte {
	t.Helper()
	cfg := testConfig()
	tRun := telemetry.NewRun(1_000)
	m := mustMachine(t, bench, f, cfg)
	m.Observe(tRun)
	res := m.Run()
	rep := telemetry.NewReport("determinism-test")
	rep.Runs = append(rep.Runs,
		tRun.Report(bench, f.Name, cfg.Instructions, cfg.Warmup, cfg.Seed, res.IPC()))
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunReportDeterministic: two runs of the same (bench, config, seed)
// must produce byte-identical JSON run reports on swim as well as mcf,
// with the sampler at a finer interval than the gate's. The gate runs
// mcf only; swim's streaming accesses exercise the prefetchers
// differently.
func TestRunReportDeterministic(t *testing.T) {
	for _, f := range []Factory{TCP8K(), DBCP2M()} {
		for _, bench := range []string{"mcf", "swim"} {
			a := reportBytes(t, bench, f)
			b := reportBytes(t, bench, f)
			if !bytes.Equal(a, b) {
				t.Errorf("%s/%s: reports differ between identical runs", bench, f.Name)
			}
		}
	}
}
