package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/analysis/hotalloc"
	"tagprefetch/internal/analysis/load"
	"tagprefetch/internal/analysis/snapfield"
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
		for _, a := range analyzers {
			if !runsOn(a, path) {
				t.Errorf("analyzer %s does not run on %s", a.Name, path)
			}
		}
	}
	if runsOn(analyzers[0], "tagprefetch/internal/telemetry") {
		t.Error("detmap must not run on host-side telemetry")
	}
}

// The atomic engine's per-instruction step must carry the //tcp:hotpath
// marker so hotalloc enforces its zero-allocation contract.
func TestAtomicEngineCarriesHotpathMarker(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "cpu", "atomic.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	found := false
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotalloc.Marker) {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("%s has no //%s marker; the fast-forward step is not hotalloc-covered", src, hotalloc.Marker)
	}
}

// The full suite must run clean over the cpu package (including the
// fast-forward engine) — its hot paths are marked and allocation-free.
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

// snapfield must check every type that implements checkpoint.Snapshotter.
// It recognises them itself; if a change to the interface or to the
// analyzer made it skip some, their fields would go unchecked with no
// finding to show for it.
func TestSnapfieldChecksEverySnapshotter(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load is slow")
	}
	pkgs, err := load.Load(".", "tagprefetch/...")
	if err != nil {
		t.Fatal(err)
	}
	var iface *types.Interface
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if imp.Path() == "tagprefetch/internal/checkpoint" {
				iface = imp.Scope().Lookup("Snapshotter").Type().Underlying().(*types.Interface)
			}
		}
	}
	if iface == nil {
		t.Fatal("no package imports checkpoint.Snapshotter; the scan is broken")
	}
	implementers := 0
	for _, p := range pkgs {
		checked := map[*types.Named]bool{}
		for _, n := range snapfield.Checked(p.Types) {
			checked[n] = true
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			implementers++
			if !checked[named] {
				t.Errorf("%s.%s implements checkpoint.Snapshotter but snapfield does not check it", p.Path, name)
			}
		}
	}
	if implementers == 0 {
		t.Fatal("found no checkpoint.Snapshotter implementations; the scan is broken")
	}
}

// snapfield's fix codes a forgotten scalar field with one line appended
// to Snapshot, which then both encodes and decodes it.
func TestSnapfieldFixAppendsToSnapshot(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"internal/checkpoint/checkpoint.go": `package checkpoint

type Codec struct{ buf []uint64 }

func (c *Codec) U64(p *uint64) { c.buf = append(c.buf, *p) }

type Snapshotter interface {
	Snapshot(c *Codec)
}
`,
		"p.go": `package p

import "example.com/lintbox/internal/checkpoint"

type Counter struct {
	tick uint64
	lost uint64
}

func (k *Counter) Snapshot(c *checkpoint.Codec) {
	c.U64(&k.tick)
}
`})
	if code, out := runLint(t, "-fix", "./..."); code != 1 {
		t.Fatalf("fixing run exit = %d, want 1 (findings existed)\n%s", code, out)
	}
	got, err := os.ReadFile(filepath.Join(dir, "p.go"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "\tc.U64(&k.tick)\n\tc.U64(&k.lost)\n}\n"; !strings.Contains(string(got), want) {
		t.Errorf("fixed p.go lacks %q:\n%s", want, got)
	}
	if code, out := runLint(t, "./..."); code != 0 {
		t.Fatalf("fixed tree exit = %d, want 0\n%s", code, out)
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
	//lint:ignore tcplint/hotalloc the allocation below is amortised
	return 0
}
`})
	code, out := runLint(t, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "stale //lint:ignore tcplint/hotalloc") {
		t.Errorf("no stale-suppression finding:\n%s", out)
	}
}

// hotSource is a module with one real hotalloc finding.
const hotSource = `package p

//tcp:hotpath
func step(xs []int) []int {
	return append(xs, 1)
}
`

// SARIF output must be well-formed and carry the findings.
func TestSARIFOutput(t *testing.T) {
	writeTempModule(t, map[string]string{"p.go": hotSource})
	code, out := runLint(t, "-format", "sarif", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shell: version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tcplint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) == 0 {
		t.Error("no results in SARIF output")
	}
	if len(run.Results) > 0 && run.Results[0].RuleID != "hotalloc" {
		t.Errorf("ruleId = %q, want hotalloc", run.Results[0].RuleID)
	}
}

// -fix must repair a hotprop finding and be idempotent: the fixed tree is
// clean and a second -diff proposes nothing.
func TestFixIdempotent(t *testing.T) {
	writeTempModule(t, map[string]string{"p.go": `package p

func grow(xs []int) []int {
	return append(xs, 1)
}

//tcp:hotpath
func step(xs []int) []int {
	return grow(xs)
}
`})
	code, out := runLint(t, "-fix", "./...")
	if code != 1 {
		t.Fatalf("fixing run exit = %d, want 1 (findings existed)\n%s", code, out)
	}
	if !strings.Contains(out, "+//tcp:coldpath TODO") {
		t.Errorf("fix diff does not insert the coldpath stub:\n%s", out)
	}
	if code, out := runLint(t, "./..."); code != 0 {
		t.Fatalf("fixed tree exit = %d, want 0\n%s", code, out)
	}
	if code, out := runLint(t, "-diff", "./..."); code != 0 || strings.Contains(out, "@@") {
		t.Fatalf("second -diff not empty (exit %d):\n%s", code, out)
	}
}
