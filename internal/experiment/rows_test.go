package experiment

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strings"
	"testing"
)

// TestGatherSimulatesNothing: every row recorded into a manifest directory
// prints the recorded bytes when a Gather answers it from that directory,
// and the gather simulates nothing. With TestOnlySimulateSimulates, which
// leaves Runner.simulate the package's one way into the simulator, a zero
// simulation count covers every row, the profile and coverage rows' miss
// streams included.
func TestGatherSimulatesNothing(t *testing.T) {
	o := Options{Instructions: 5_000, Warmup: 5_000, Benches: []string{"swim", "mcf"}}
	dir := t.TempDir()
	store, err := NewResultStore(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	o.Runner = NewRunner(2)
	o.Runner.SetResultStore(store)
	var recorded bytes.Buffer
	for _, row := range Rows {
		row.Run(o).Print(&recorded)
	}
	if simulated, _ := o.Runner.MemoStats(); simulated == 0 {
		t.Fatal("the recording run simulated nothing")
	}

	back, err := NewResultStore(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGather(back.LookupJob, math.MaxInt)
	o.Runner = NewRunner(1)
	o.Runner.SetAnswer(g.Answer)
	var gathered bytes.Buffer
	for _, row := range Rows {
		row.Run(o).Print(&gathered)
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if simulated, _ := o.Runner.MemoStats(); simulated != 0 {
		t.Errorf("the gather simulated %d points, want 0", simulated)
	}
	if !bytes.Equal(gathered.Bytes(), recorded.Bytes()) {
		t.Errorf("gathered rows differ from the recorded ones:\n%s\nrecorded:\n%s", gathered.Bytes(), recorded.Bytes())
	}
}

// TestOnlySimulateSimulates: no path in package experiment reaches the
// simulator except through Runner.simulate, and simulate is called only
// where the runner resolves a submitted job, which an answer hook such as
// Gather bypasses. The calls that construct or run a machine sit in
// simulate and the two helpers it alone calls.
func TestOnlySimulateSimulates(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	simCalls := map[string]bool{"Run": true, "MustRun": true, "ObserveMisses": true, "NewMachine": true}
	resolvers := map[string]bool{"resolve": true, "runDistributed": true, "runClaimed": true}
	callers := map[string]map[string]bool{
		"simulate":   resolvers,
		"warmImage":  {"simulate": true},
		"missStream": {"simulate": true},
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				in := fn.Name.Name
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					var callee string
					switch fun := call.Fun.(type) {
					case *ast.SelectorExpr:
						if x, ok := fun.X.(*ast.Ident); ok && x.Name == "sim" && simCalls[fun.Sel.Name] &&
							in != "simulate" && !callers[in]["simulate"] {
							t.Errorf("%s: %s calls sim.%s", name, in, fun.Sel.Name)
						}
						callee = fun.Sel.Name
					case *ast.Ident:
						callee = fun.Name
					}
					if allowed, ok := callers[callee]; ok && !allowed[in] {
						t.Errorf("%s: %s calls %s", name, in, callee)
					}
					return true
				})
			}
		}
	}
}

// TestRowTitles: a table row's title is its table's, and every name is
// unique. Plan mode renders each row without simulating.
func TestRowTitles(t *testing.T) {
	r := NewRunner(1)
	r.SetPlan(func(Job) {})
	seen := map[string]bool{}
	for _, row := range Rows {
		if seen[row.Name] || row.Name == "all" {
			t.Errorf("row name %q repeats or is reserved", row.Name)
		}
		seen[row.Name] = true
		if tab := row.Run(Options{Benches: []string{"swim"}, Runner: r}).Table; tab != nil && tab.Title() != row.Title {
			t.Errorf("row %s: title %q, its table's %q", row.Name, row.Title, tab.Title())
		}
	}
	if got := Rows[PaperRows-1].Name; got != "coverage" {
		t.Errorf("the paper prefix ends at %q, want coverage", got)
	}
}
