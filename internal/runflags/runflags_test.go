package runflags

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sim"
)

// bind parses args into a fresh flag set and binds it, as tcpfigs would.
func bind(t *testing.T, args ...string) (*Run, error) {
	t.Helper()
	fs := flag.NewFlagSet("tcpfigs", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "tcpfigs")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	r, stop, err := f.Bind("nbits")
	if err == nil {
		stop()
	}
	return r, err
}

// bindWindow parses args into a fresh flag set and binds its window set,
// as tcpsim would.
func bindWindow(t *testing.T, args ...string) (sim.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("tcpsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	w := RegisterWindow(fs, "tcpsim")
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	cfg, stop, err := w.Bind()
	if err == nil {
		stop()
	}
	return cfg, err
}

// TestWindowBindRejects: a zero measured window, a zero seed (which
// sim.Config would run as seed 1), a bad fidelity and an overflowing
// window each exit 2 with their message.
func TestWindowBindRejects(t *testing.T) {
	cases := []struct {
		args []string
		msg  string
	}{
		{[]string{"-n", "0"}, "sim: invalid config: Instructions: measured window is zero"},
		{[]string{"-seed", "0"}, "sim: invalid config: Seed: seed is zero"},
		{[]string{"-warmup-fidelity", "psychic"}, `-warmup-fidelity: unknown warmup fidelity "psychic" (want "full" or "fast")`},
		{[]string{"-n", "1", "-warmup", "18446744073709551615"}, "sim: invalid config: Warmup: warmup 18446744073709551615 + instructions 1 overflows"},
	}
	for _, tc := range cases {
		_, err := bindWindow(t, tc.args...)
		if err == nil || err.Error() != tc.msg || exitCode(err) != 2 {
			t.Errorf("%v: exit %d %v, want exit 2 %q", tc.args, exitCode(err), err, tc.msg)
		}
	}
}

// TestWindowBindIsLiteral: with no arguments the window is package sim's
// defaults, and -warmup 0 is a run with no warmup, not a default.
func TestWindowBindIsLiteral(t *testing.T) {
	cfg, err := bindWindow(t)
	want := sim.Config{Instructions: sim.DefaultInstructions, Warmup: sim.DefaultWarmup,
		Seed: sim.DefaultSeed, WarmupFidelity: sim.FidelityFull}
	if err != nil || cfg != want {
		t.Errorf("default window = %+v, %v; want %+v", cfg, err, want)
	}
	cfg, err = bindWindow(t, "-warmup", "0", "-warmup-fidelity", "fast")
	if err != nil || cfg.Warmup != 0 || cfg.Normalized().Warmup != 0 || cfg.WarmupFidelity != sim.FidelityFast {
		t.Errorf("-warmup 0 -warmup-fidelity fast = %+v, %v; want no warmup on the fast engine", cfg, err)
	}
}

// TestBindRejects covers every validation error Bind returns: each exits
// 2 with its message, and none creates the checkpoint directory's
// grid.json. Nothing is simulated.
func TestBindRejects(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	cases := []struct {
		args []string
		msg  string
	}{
		{[]string{"-resume"}, "-resume requires -checkpoint-dir"},
		{[]string{"-workers", "2"}, "-workers/-worker-id require -checkpoint-dir (the shared directory is the coordination medium)"},
		{[]string{"-gather"}, "-gather requires -checkpoint-dir"},
		{[]string{"-gather", "-workers", "2", "-checkpoint-dir", dir}, "-gather and -workers are mutually exclusive (gather assembles after the workers finish)"},
		{[]string{"-lease-ttl", "0s", "-checkpoint-dir", dir}, "invalid flag -lease-ttl: must be positive, got 0s"},
		{[]string{"-workers", "-1", "-checkpoint-dir", dir}, "invalid flag -workers: must be non-negative, got -1"},
		{[]string{"-worker-id", "a", "-checkpoint-dir", dir}, "invalid flag -worker-id: requires -workers (the advisory fleet size)"},
		{[]string{"-workers", "3", "-worker-id", "3", "-checkpoint-dir", dir}, "invalid flag -worker-id: numeric id 3 is out of range for -workers 3 (ids are 0-based)"},
		{[]string{"-warmup-fidelity", "psychic", "-checkpoint-dir", dir}, `-warmup-fidelity: unknown warmup fidelity "psychic" (want "full" or "fast")`},
		{[]string{"-n", "0", "-checkpoint-dir", dir}, "sim: invalid config: Instructions: measured window is zero"},
		{[]string{"-warmup", "0", "-checkpoint-dir", dir}, "sim: invalid config: Warmup: warmup window is zero"},
		{[]string{"-seed", "0", "-checkpoint-dir", dir}, "sim: invalid config: Seed: seed is zero"},
		{[]string{"-n", "1", "-warmup", "18446744073709551615", "-checkpoint-dir", dir}, "sim: invalid config: Warmup: warmup 18446744073709551615 + instructions 1 overflows"},
		{[]string{"-benches", "doom", "-checkpoint-dir", dir}, `unknown benchmark "doom"`},
		{[]string{"-benches", "swim,", "-checkpoint-dir", dir}, `unknown benchmark ""`},
	}
	for _, tc := range cases {
		_, err := bind(t, tc.args...)
		if err == nil {
			t.Errorf("%v: bound, want %q", tc.args, tc.msg)
			continue
		}
		if err.Error() != tc.msg || exitCode(err) != 2 {
			t.Errorf("%v: exit %d %q, want exit 2 %q", tc.args, exitCode(err), err, tc.msg)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected bind touched the checkpoint directory: %v", err)
	}
}

// TestBindWiresGrid: a valid bind records the grid and returns Options
// with the flags' window; re-entering the directory with other flags is a
// grid mismatch, exit 2.
func TestBindWiresGrid(t *testing.T) {
	dir := t.TempDir()
	r, err := bind(t, "-n", "1000", "-warmup", "2000", "-benches", "swim,mcf",
		"-warmup-fidelity", "fast", "-checkpoint-dir", dir, "-jobs", "1")
	if err != nil {
		t.Fatal(err)
	}
	o := r.Options
	if o.Instructions != 1000 || o.Warmup != 2000 || strings.Join(o.Benches, ",") != "swim,mcf" ||
		o.WarmupFidelity != "fast" || o.Runner == nil || o.Runner.Jobs() != 1 {
		t.Errorf("options = %+v", o)
	}
	g, err := experiment.ReadGrid(dir)
	if err != nil {
		t.Fatal(err)
	}
	if g.Tool != "tcpfigs" || g.Experiment != "nbits" || g.WarmupFidelity != "fast" || len(g.Benches) != 2 {
		t.Errorf("grid.json = %+v", g)
	}
	_, err = bind(t, "-n", "5000", "-checkpoint-dir", dir, "-resume")
	var gm *experiment.GridMismatchError
	if !errors.As(err, &gm) || exitCode(err) != 2 {
		t.Errorf("resume with another grid: %v (exit %d), want a grid mismatch, exit 2", err, exitCode(err))
	}
}
