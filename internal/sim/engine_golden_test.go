package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"tagprefetch/internal/telemetry"
)

// goldenRun drives one full run under cfg with a telemetry sampler armed
// and returns what the timing-engine golden pins: the measured Result, the
// cycle-sampled telemetry series, and the final checkpoint image (taken at
// the last instruction, before finish moves end-of-run accounting).
func goldenRun(t *testing.T, bench string, f Factory, cfg Config) (Result, []telemetry.TimeSeries, []byte) {
	t.Helper()
	tRun := telemetry.NewRun(1_000)
	m := mustMachine(t, bench, f, cfg)
	m.Observe(tRun)
	m.RunTo(m.Total())
	img, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return m.finish(), tRun.Sampler.Series(), img
}

// engineGoldenCase is one pinned run.
type engineGoldenCase struct {
	label, bench string
	f            Factory
	cfg          Config
}

// engineGoldenCases spans three benches across the Figure 13 sweep shapes
// (fastEquivCases), plus two fast warmups so the functional engine's use
// of the MSHR file and prefetcher plumbing is pinned too.
func engineGoldenCases() []engineGoldenCase {
	base := Config{Instructions: 100_000, Warmup: 200_000, Seed: 1}
	var cases []engineGoldenCase
	for _, bench := range []string{"swim", "mcf", "equake"} {
		for _, tc := range fastEquivCases() {
			cases = append(cases, engineGoldenCase{bench + "/" + tc.label, bench, tc.f, base})
		}
	}
	fast := base
	fast.WarmupFidelity = FidelityFast
	return append(cases,
		engineGoldenCase{"swim/none/fast-warmup", "swim", NoPrefetch(), fast},
		engineGoldenCase{"mcf/tcp-8K/fast-warmup", "mcf", TCP8K(), fast})
}

// caseFingerprint runs one golden case and renders it as text: the Result
// as JSON, each sampled series as its point count and SHA-256, and the
// final image as its length and SHA-256. The golden file is the
// concatenation of every case's fingerprint, in engineGoldenCases order.
func caseFingerprint(t *testing.T, tc engineGoldenCase) string {
	t.Helper()
	var b strings.Builder
	res, series, img := goldenRun(t, tc.bench, tc.f, tc.cfg)
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%s:\n  result %s\n", tc.label, js)
	for _, s := range series {
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "  series %-28s %5d %x\n", s.Name, len(s.Cycles), sha256.Sum256(js))
	}
	fmt.Fprintf(&b, "  image  %d %x\n", len(img), sha256.Sum256(img))
	return b.String()
}

const engineGolden = "testdata/timing_engine.golden"

// readEngineGolden splits the recorded golden file into its per-case
// sections, keyed by label, and returns the labels in file order.
func readEngineGolden(t *testing.T) (map[string]string, []string) {
	t.Helper()
	raw, err := os.ReadFile(engineGolden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with go test ./internal/sim -run TestTimingEngineGolden -update)", engineGolden, err)
	}
	sections := map[string]string{}
	var order []string
	label := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			label = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), ":")
			order = append(order, label)
		}
		sections[label] += line
	}
	return sections, order
}

// checkEngineGolden runs the golden cases that keep selects and compares
// each, byte for byte, with its recorded section.
func checkEngineGolden(t *testing.T, keep func(engineGoldenCase) bool) {
	t.Helper()
	want, _ := readEngineGolden(t)
	ran := 0
	for _, tc := range engineGoldenCases() {
		if !keep(tc) {
			continue
		}
		ran++
		w, ok := want[tc.label]
		if !ok {
			t.Fatalf("%s: no section in %s (regenerate with -update)", tc.label, engineGolden)
		}
		got := caseFingerprint(t, tc)
		if got == w {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(w, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: timing engine output drifted from %s:\ngot:  %s\nwant: %s", tc.label, engineGolden, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: timing engine output drifted from %s: %d lines, want %d", tc.label, engineGolden, len(gl), len(wl))
	}
	if ran == 0 {
		t.Fatal("no golden case selected")
	}
}

// TestTimingEngineGolden owns the recorded file: with -update it rewrites
// it from every golden case; otherwise it checks that the file holds one
// section per case, in order, so a case added or renamed without
// re-recording fails here rather than being silently unchecked. The runs
// themselves are compared by the three tests below, which split the cases
// by what they pin.
func TestTimingEngineGolden(t *testing.T) {
	cases := engineGoldenCases()
	if *updateGolden {
		var b strings.Builder
		for _, tc := range cases {
			b.WriteString(caseFingerprint(t, tc))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	_, order := readEngineGolden(t)
	if len(order) != len(cases) {
		t.Fatalf("%s has %d sections, want %d (regenerate with -update)", engineGolden, len(order), len(cases))
	}
	for i, tc := range cases {
		if order[i] != tc.label {
			t.Fatalf("%s section %d is %q, want %q (regenerate with -update)", engineGolden, i, order[i], tc.label)
		}
	}
}

// TestMeasuredSkipEquivalence checks that the measured window, whose
// fast paths (masked ring index, chained MSHR index, elided no-op
// prefetcher hooks) are the only timing loop, reproduces the output the
// reference loop recorded for 3 benches x the 8 Figure 13 configurations:
// Result, sampled series and final image, byte for byte.
func TestMeasuredSkipEquivalence(t *testing.T) {
	checkEngineGolden(t, func(tc engineGoldenCase) bool {
		return tc.cfg.WarmupFidelity != FidelityFast
	})
}

// TestMeasuredSkipComposesWithFastWarmup checks the same contract after
// a fast (functional) warmup, which hands the measured window an MSHR
// file and prefetcher state built by the other engine.
func TestMeasuredSkipComposesWithFastWarmup(t *testing.T) {
	checkEngineGolden(t, func(tc engineGoldenCase) bool {
		return tc.cfg.WarmupFidelity == FidelityFast
	})
}
