package main

import (
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/analysis/load"
)

// runLint invokes the driver with args and returns its exit code and
// combined output.
func runLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "tcplint-out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	code := run(args, f, f)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// The determinism analyzers must cover every simulator-state package; the
// fast-forward engine lives in internal/cpu, so a regression here would
// silently exempt it from the lint sweep.
func TestRunsOnCoversSimPackages(t *testing.T) {
	for _, path := range []string{
		"tagprefetch/internal/cpu",
		"tagprefetch/internal/cache",
		"tagprefetch/internal/memsys",
		"tagprefetch/internal/sim",
		"tagprefetch/internal/experiment",
	} {
		if !simPackageRE.MatchString(path) {
			t.Errorf("the suite does not report on %s", path)
		}
	}
	if simPackageRE.MatchString("tagprefetch/internal/telemetry") {
		t.Error("the suite must not report on host-side telemetry")
	}
}

// The full suite must run clean over the cpu package, including the
// fast-forward engine.
func TestSuiteCleanOnCPU(t *testing.T) {
	code, out := runLint(t, "tagprefetch/internal/cpu")
	if code != 0 {
		t.Errorf("tcplint on internal/cpu exited %d:\n%s", code, out)
	}
}

// The whole module stays lint-clean.
func TestSuiteCleanRepoWide(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load is slow")
	}
	code, out := runLint(t, "tagprefetch/...")
	if code != 0 {
		t.Errorf("tcplint on tagprefetch/... exited %d:\n%s", code, out)
	}
}

// Every method of an interface declared under internal/ must be called
// through an interface somewhere in the non-test code: a contract method
// no production path reaches is surface every implementation pays for and
// nothing uses. Go list reports only non-test files, so test calls do not
// count. Methods are keyed by name ("(pkg.Iface).Method") because each
// package's view of an imported interface comes from export data, not
// from the declaring package's own typecheck.
func TestNoUncalledInterfaceMethods(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load is slow")
	}
	pkgs, err := load.Load(".", "tagprefetch/...")
	if err != nil {
		t.Fatal(err)
	}
	// Marker methods exist to be implemented, never called.
	exempt := map[string]bool{"(tagprefetch/internal/analysis.Fact).AFact": true}
	called := map[string]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[fn.FullName()] = true
			}
		}
	}
	declared := 0
	for _, p := range pkgs {
		if !strings.Contains(p.Path, "/internal/") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				m := iface.ExplicitMethod(i).FullName()
				declared++
				if !called[m] && !exempt[m] {
					t.Errorf("%s has no non-test call through its interface", m)
				}
			}
		}
	}
	if declared == 0 {
		t.Fatal("found no interface methods under internal/; the scan is broken")
	}
}

// -only with an unknown name must fail loudly AND tell the user what is
// available, so a typo in CI surfaces the real analyzer list.
func TestOnlyUnknownAnalyzerListsSuite(t *testing.T) {
	code, out := runLint(t, "-only", "detmpa", "tagprefetch/internal/cpu")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, `unknown analyzer "detmpa"`) {
		t.Errorf("output does not name the unknown analyzer:\n%s", out)
	}
	for _, a := range analyzers {
		if !strings.Contains(out, a.Name) {
			t.Errorf("output does not list analyzer %s:\n%s", a.Name, out)
		}
	}
}

// writeTempModule lays down a throwaway module and chdirs into it.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/lintbox\n\ngo 1.22\n"
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// A suppression comment whose finding no longer exists must fail the run:
// stale ignores rot into blanket exemptions.
func TestStaleSuppressionAudit(t *testing.T) {
	writeTempModule(t, map[string]string{"p.go": `package p

func calm() int {
	//lint:ignore tcplint/detflow the value below does not reach a result
	return 0
}
`})
	code, out := runLint(t, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "stale //lint:ignore tcplint/detflow") {
		t.Errorf("no stale-suppression finding:\n%s", out)
	}
}
