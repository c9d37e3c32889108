package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

// layoutConfig is one machine configuration whose checkpoint layout the
// snapshot tests pin.
type layoutConfig struct {
	label string
	f     Factory
	cfg   Config
	tel   *telemetry.Run
}

// layoutConfigs spans every Snapshotter family the simulator can put into a
// checkpoint: the baseline, each prefetcher organisation (their sections
// differ), the hybrid with its dead-block predictor, the critical-filter
// wrapper, and a telemetry sampler.
func layoutConfigs() []layoutConfig {
	base := Config{Instructions: 1_000, Warmup: 2_000, Seed: 1}
	fastWarm := base
	fastWarm.WarmupFidelity = FidelityFast
	return []layoutConfig{
		{"none", NoPrefetch(), base, nil},
		{"tcp-8K", TCP8K(), base, nil},
		{"tcp-8M", TCP8M(), base, nil},
		{"hybrid-8K", Hybrid8K(), base, nil},
		{"dbcp-2M", DBCP2M(), base, nil},
		{"stride", Stride(), base, nil},
		{"stream", StreamBuffers(), base, nil},
		{"markov", Markov(), base, nil},
		{"ghb-pc/dc", GHB(), base, nil},
		{"nextline", NextLine(), base, nil},
		{"tcp-8K+cf", WithCriticalFilter(TCP8K()), base, nil},
		{"none+sampler", NoPrefetch(), base, telemetry.NewRun(500)},
		{"tcp-8K+fastwarm", TCP8K(), fastWarm, nil},
	}
}

// layoutFingerprint renders the section layout of every configuration's
// checkpoint image, taken from a fresh machine so the payload lengths are a
// pure function of the encoders and the configuration.
func layoutFingerprint(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint format version %d\n", checkpoint.Version)
	for _, lc := range layoutConfigs() {
		m := mustMachine(t, "swim", lc.f, lc.cfg)
		m.Observe(lc.tel)
		img, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", lc.label, err)
		}
		secs, err := checkpoint.Sections(img)
		if err != nil {
			t.Fatalf("%s: sections: %v", lc.label, err)
		}
		fmt.Fprintf(&b, "\n%s:\n", lc.label)
		for _, s := range secs {
			fmt.Fprintf(&b, "  %-24s %d\n", s.Name, s.Len)
		}
	}
	return b.String()
}

// TestSnapshotLayoutGolden pins every Snapshotter's section layout — names,
// order, and fresh-state payload lengths — against a golden file. It fails
// when any component changes its checkpoint encoding while
// checkpoint.Version stays the same: such a change makes old warm images on
// shared checkpoint directories unreadable (or worse, silently
// reinterpreted) by new builds. Content-dependent encodings are covered by
// the save/restore round-trip tests; this test is only about the layout.
func TestSnapshotLayoutGolden(t *testing.T) {
	const golden = "testdata/snapshot_layout.golden"
	got := layoutFingerprint(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with go test ./internal/sim -run TestSnapshotLayoutGolden -update)", golden, err)
	}
	if got != string(want) {
		t.Errorf("checkpoint section layout drifted from %s.\n"+
			"If the encoding change is intentional, bump checkpoint.Version so old images are rejected\n"+
			"instead of misread, then regenerate: go test ./internal/sim -run TestSnapshotLayoutGolden -update\n"+
			"got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// imageFingerprint renders a content hash of two checkpoint images per
// layoutConfigs row: one mid-warmup and one past the warmup/measure
// boundary. Where the layout golden pins only section names and fresh-state
// lengths, these hashes pin every encoded byte of a warm machine, so an
// encoder refactor that keeps the layout but moves, drops or reorders a
// value fails here.
func imageFingerprint(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint format version %d\n", checkpoint.Version)
	for _, lc := range layoutConfigs() {
		m := mustMachine(t, "swim", lc.f, lc.cfg)
		m.Observe(lc.tel)
		fmt.Fprintf(&b, "\n%s:\n", lc.label)
		for _, at := range []uint64{lc.cfg.Warmup / 2, lc.cfg.Warmup + lc.cfg.Instructions/2} {
			m.RunTo(at)
			img, err := m.Checkpoint()
			if err != nil {
				t.Fatalf("%s at %d: checkpoint: %v", lc.label, at, err)
			}
			fmt.Fprintf(&b, "  @%-6d %x\n", at, sha256.Sum256(img))
		}
	}
	return b.String()
}

// TestSnapshotImageGolden pins the bytes of warm checkpoint images, not
// just their layout: every layoutConfigs row is checkpointed mid-warmup and
// after the measure boundary and the images' SHA-256 compared with a
// golden. A change here with checkpoint.Version unchanged means old images
// on shared checkpoint directories would be misread by new builds.
func TestSnapshotImageGolden(t *testing.T) {
	const golden = "testdata/snapshot_image.golden"
	got := imageFingerprint(t)
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with go test ./internal/sim -run TestSnapshotImageGolden -update)", golden, err)
	}
	if got != string(want) {
		t.Errorf("checkpoint image bytes drifted from %s.\n"+
			"If the encoding change is intentional, bump checkpoint.Version, then regenerate:\n"+
			"go test ./internal/sim -run TestSnapshotImageGolden -update\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
