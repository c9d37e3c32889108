package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/runflags"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
)

// figure11Cell reads bench's base IPC and TCP-8K improvement from the
// Figure 11 block of the committed reference run. Columns are located by
// their header's offset, as the aligned table prints them.
func figure11Cell(t *testing.T, bench string) (baseIPC, tcp8K string) {
	t.Helper()
	data, err := os.ReadFile("../../results/reference_run.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(data), "== Figure 11:")
	if !ok {
		t.Fatal("reference run has no Figure 11 block")
	}
	lines := strings.Split(block, "\n")
	header := lines[1]
	for _, line := range lines[3:] {
		if line == "" {
			break
		}
		if strings.Fields(line)[0] != bench {
			continue
		}
		cell := func(col string) string {
			at := strings.Index(header, col)
			if at < 0 {
				t.Fatalf("Figure 11 header %q has no %q column", header, col)
			}
			return strings.Fields(line[at:])[0]
		}
		return cell("base IPC"), cell("tcp-8K")
	}
	t.Fatalf("Figure 11 has no %s row", bench)
	return "", ""
}

// TestDefaultFlagsReproduceFigure11: tcpsim with no window flags runs the
// window every other tool runs, so its gzip IPCs under no prefetcher and
// TCP-8K give gzip's Figure 11 cell of the reference run.
func TestDefaultFlagsReproduceFigure11(t *testing.T) {
	fs := flag.NewFlagSet("tcpsim", flag.ContinueOnError)
	win := runflags.RegisterWindow(fs, "tcpsim")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	window, stop, err := win.Bind()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cfg, err := machineConfig(window, false, "", "")
	if err != nil {
		t.Fatal(err)
	}
	base, code := runBench("gzip", sim.NoPrefetch(), cfg, nil, checkpointing{})
	tcp, code2 := runBench("gzip", sim.TCP8K(), cfg, nil, checkpointing{})
	if code != 0 || code2 != 0 {
		t.Fatalf("runBench exit %d, %d", code, code2)
	}
	wantIPC, wantImp := figure11Cell(t, "gzip")
	if got := fmt.Sprintf("%.3f", base.IPC()); got != wantIPC {
		t.Errorf("gzip base IPC = %s, want %s", got, wantIPC)
	}
	if got := stats.Percent(sim.Improvement(tcp, base)); got != wantImp {
		t.Errorf("gzip TCP-8K improvement = %s, want %s", got, wantImp)
	}
}

// TestBadTraceLevelKeepsTraceFile: an unknown -trace-level exits 2 before
// the -trace file is opened, so an existing trace is left as it was.
func TestBadTraceLevelKeepsTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ev.jsonl")
	const old = "{\"type\":\"run.start\"}\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = []string{"tcpsim", "-bench", "gzip", "-trace", path, "-trace-level", "bogus"}
	flag.CommandLine = flag.NewFlagSet("tcpsim", flag.ContinueOnError)
	if code := run(); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != old {
		t.Errorf("-trace file now holds %q (err %v), want it unchanged: %q", data, err, old)
	}
}
