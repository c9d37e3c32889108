package sim

import (
	"bytes"
	"testing"

	"tagprefetch/internal/telemetry"
)

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

// TestRunReportDeterministic is the end-to-end determinism regression: two
// runs of the same (bench, config, seed) must produce byte-identical JSON
// run reports — metrics, sampled time series, and phase markers included.
// Any nondeterminism anywhere in the simulator (map iteration, wall-clock
// leakage, shared RNG state) shows up here as a diff.
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
