package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tagprefetch/internal/trace"
)

// runArgs runs the command with args on a fresh flag set, with its
// standard output discarded, and returns the exit code.
func runArgs(t *testing.T, args ...string) int {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	os.Args = append([]string{"tcptrace"}, args...)
	flag.CommandLine = flag.NewFlagSet("tcptrace", flag.ContinueOnError)
	os.Stdout = null
	return run()
}

// TestSeqLenOutOfRange: the profiler supports sequences of 2 to
// profiler.MaxSeqLen tags, so any other -k exits 2 before anything is
// simulated (the -o trace is never created), instead of printing the
// clamped length's numbers under the length asked for.
func TestSeqLenOutOfRange(t *testing.T) {
	for _, k := range []string{"1", "5"} {
		out := filepath.Join(t.TempDir(), "gzip.trc")
		if code := runArgs(t, "-bench", "gzip", "-k", k, "-o", out); code != 2 {
			t.Errorf("-k %s: exit %d, want 2", k, code)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-k %s: -o trace exists (stat: %v); nothing should have run", k, err)
		}
	}
	// The bounds themselves are accepted: re-analyse an empty trace.
	in := filepath.Join(t.TempDir(), "empty.trc")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.NewWriter(f).Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for _, k := range []string{"2", "4"} {
		if code := runArgs(t, "-i", in, "-k", k); code != 0 {
			t.Errorf("-k %s: exit %d, want 0", k, code)
		}
	}
}
