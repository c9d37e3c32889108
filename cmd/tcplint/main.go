// Command tcplint is the repo's static-analysis driver: it runs the
// internal/analysis suite (detmap, notime, detflow) over the module,
// enforcing at compile time the contract the simulator's results rest on:
// bit-identical reproducibility from a seed. CI runs it next to go vet;
// run it locally with
//
//	go run ./cmd/tcplint ./...
//
// Packages are analyzed in dependency order over one shared fact store,
// so detflow's cross-package facts (SinkParams, TaintedReturn) reach an
// importer before it is checked. Reporting is filtered afterwards:
// dependency-only packages and packages outside the simulator are
// analyzed for facts but never reported on.
//
// Exit status: 0 clean, 1 findings (including stale suppressions), 2
// load or internal errors. Findings use the go vet file:line:col format.
// A finding is tolerated only by a //lint:ignore comment at its site,
// which must keep suppressing something. See docs/STATIC_ANALYSIS.md for
// the analyzer catalogue, the suppression syntax and the runtime tests
// that check allocation-freedom, telemetry registration and checkpoint
// coverage.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"tagprefetch/internal/analysis"
	"tagprefetch/internal/analysis/detflow"
	"tagprefetch/internal/analysis/detmap"
	"tagprefetch/internal/analysis/load"
	"tagprefetch/internal/analysis/notime"
)

// analyzers is the suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	detmap.Analyzer,
	notime.Analyzer,
	detflow.Analyzer,
}

// suppressCheck is the pseudo-analyzer name of driver-synthesised
// findings for stale //lint:ignore comments.
const suppressCheck = "suppress"

// simPackageRE matches the packages that hold simulator state or feed
// experiment results: the analyzers report only there. Host-side tooling
// — telemetry's wall-clock run reports, pprof plumbing, and the analysis
// suite itself — is exempt; the cmd/ binaries are included because table
// and JSON output order is part of a reproducible run.
var simPackageRE = regexp.MustCompile(`^tagprefetch(/cmd/[^/]+)?$|` +
	`^tagprefetch/internal/(addr|branch|bus|cache|checkpoint|core|coverage|cpu|critical|dbcp|deadblock|dram|experiment|memsys|prefetch|profiler|sim|stats|trace|workload|xrand)$`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("tcplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	verbose := fs.Bool("v", false, "report the number of packages analyzed")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tcplint [flags] [packages]\n\nEnforces simulator determinism.\nSee docs/STATIC_ANALYSIS.md.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "tcplint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "tcplint:", err)
		return 2
	}
	root, err := moduleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "tcplint:", err)
		return 2
	}
	pkgs, err := load.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "tcplint:", err)
		return 2
	}

	diags, errc := analyze(pkgs, selected, stderr)
	if errc != 0 {
		return errc
	}
	relativize(diags, root)
	sortDiags(diags)

	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if *verbose {
		fmt.Fprintf(stderr, "tcplint: %d packages, %d analyzers, %d findings\n",
			len(pkgs), len(selected), len(diags))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// analyze runs the selected analyzers over every loaded package in
// dependency order with one shared fact store, returning the reportable
// findings plus stale-suppression findings for the requested packages.
func analyze(pkgs []*load.Package, selected []*analysis.Analyzer, stderr *os.File) ([]analysis.Diagnostic, int) {
	facts := analysis.NewFacts()
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		supp := analysis.IndexSuppressions(pkg.Fset, pkg.Files)
		for _, a := range selected {
			reportable := !pkg.DepOnly && simPackageRE.MatchString(pkg.Path)
			if !reportable && len(a.FactTypes) == 0 {
				continue // nothing to report, no facts to compute
			}
			pass := analysis.NewSuitePass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, facts, supp)
			ds, err := analysis.RunPass(pass)
			if err != nil {
				fmt.Fprintf(stderr, "tcplint: %s: %v\n", pkg.Path, err)
				return nil, 2
			}
			if reportable {
				diags = append(diags, ds...)
			}
		}
		if pkg.DepOnly {
			continue
		}
		for _, s := range supp.Stale(known) {
			diags = append(diags, analysis.Diagnostic{
				Pos:      s.Pos,
				Analyzer: suppressCheck,
				Message: fmt.Sprintf("stale //lint:ignore %s: it suppressed nothing in this run; drop the comment or fix the check list",
					strings.Join(s.Checks, ",")),
			})
		}
	}
	return diags, 0
}

// selectAnalyzers resolves the -only flag against the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q; available analyzers: %s", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// moduleRoot walks up from dir to the enclosing go.mod, the base all
// reported paths are made relative to.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// relativize rewrites every finding path to be module-relative, so the
// output is stable across checkouts.
func relativize(diags []analysis.Diagnostic, root string) {
	for i := range diags {
		if r, err := filepath.Rel(root, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			diags[i].Pos.Filename = filepath.ToSlash(r)
		}
	}
}

func sortDiags(diags []analysis.Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
