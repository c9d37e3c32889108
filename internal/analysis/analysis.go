// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis: an Analyzer is a named check with a Run
// function over a typechecked package (a Pass), reporting Diagnostics.
//
// The repo cannot vendor x/tools (the build is fully offline), so this
// package re-implements the subset the tcplint suite needs — single-package
// analyzers, position-accurate diagnostics, suppression comments and typed
// cross-package facts (facts.go) — on top of the standard library. The API is shaped after x/tools so analyzers can
// migrate to the real framework mechanically if the dependency ever lands.
//
// # Suppression comments
//
// A diagnostic is suppressed by a staticcheck-style comment
//
//	//lint:ignore tcplint/<name>[,tcplint/<name>...] <justification>
//
// placed either at the end of the offending line or alone on the line
// immediately above it. The justification is mandatory: an ignore comment
// without one does not suppress, and instead produces its own diagnostic,
// so every silenced finding carries an auditable reason. The check list may
// be "all" to silence every tcplint analyzer on that line.
//
// # Suite runs
//
// A driver that runs several analyzers over several packages builds one
// Suppressions index per package (shared by every analyzer's pass, so
// usage accumulates) and one Facts store per walk (shared by every pass,
// so facts flow from dependencies to importers), then creates passes with
// NewSuitePass. After the walk, Suppressions.Stale reports ignore comments
// that no longer silence anything — stale suppressions rot into blanket
// exemptions if left behind.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Name is the identifier used in
// diagnostics and suppression comments; Doc is the help text shown by
// `tcplint -list`. FactTypes declares the fact types the analyzer may
// export or import (see facts.go); analyzers without cross-package state
// leave it nil.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	FactTypes []Fact
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's view of one typechecked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	suppress *Suppressions
	facts    *Facts
	diags    []Diagnostic
}

type suppressKey struct {
	file string
	line int
}

type suppression struct {
	checks []string // analyzer names, or "all"
	reason string
	pos    token.Position
	used   bool
	ran    map[string]bool // analyzers whose pass consulted this index
	warned bool            // missing-justification diagnostic already emitted
}

// Suppressions indexes one package's //lint:ignore comments. One index is
// shared by every analyzer's pass over the package, so "used" and "ran"
// accumulate across the whole suite and Stale can tell a dead comment from
// one whose analyzer simply did not run.
type Suppressions struct {
	m map[suppressKey]*suppression
}

// ignorePrefix introduces a suppression comment.
const ignorePrefix = "//lint:ignore "

// checkPrefix namespaces this suite's analyzers in suppression comments.
const checkPrefix = "tcplint/"

// IndexSuppressions records each //lint:ignore comment under the source
// line it governs: its own line for a trailing comment, the following line
// for a comment that stands alone.
func IndexSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	idx := &Suppressions{m: make(map[suppressKey]*suppression)}
	for _, f := range files {
		codeLines := codeLines(fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
				checks, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				s := &suppression{
					checks: strings.Split(checks, ","),
					reason: strings.TrimSpace(reason),
					pos:    pos,
					ran:    make(map[string]bool),
				}
				line := pos.Line
				if !codeLines[line] {
					line++ // standalone comment governs the next line
				}
				idx.m[suppressKey{pos.Filename, line}] = s
			}
		}
	}
	return idx
}

// codeLines returns the set of lines holding at least one non-comment
// token, so a suppression comment can tell whether it trails code or
// stands alone. Every code token starts some AST node, so marking node
// start/end lines covers all of them.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.Comment, *ast.CommentGroup:
			return false // doc comments are attached to decls; not code
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// A StaleSuppression is an ignore comment that silenced nothing during a
// full suite run: either the finding it excused was fixed (delete the
// comment) or it names a check that does not exist.
type StaleSuppression struct {
	Pos    token.Position
	Checks []string
	Reason string
}

// Stale returns the suppressions that no analyzer used, provided every
// analyzer they name actually ran on the package (known maps valid
// analyzer names; a comment naming an unknown check is always stale).
// Results are sorted by position.
func (sup *Suppressions) Stale(known map[string]bool) []StaleSuppression {
	var out []StaleSuppression
	for _, s := range sup.m {
		if s.used {
			continue
		}
		provable := true
		for _, c := range s.checks {
			name := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(c), checkPrefix))
			if name == "all" {
				continue // "all" is judged by whatever ran
			}
			if known[name] && !s.ran[name] {
				provable = false // its analyzer never looked; can't call it stale
				break
			}
		}
		if provable {
			out = append(out, StaleSuppression{Pos: s.pos, Checks: s.checks, Reason: s.reason})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// NewPass builds a self-contained Pass for one analyzer over one
// typechecked package, with private suppression and fact stores. Tests
// and single-analyzer runs use this; drivers running a suite use
// NewSuitePass so state is shared.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) *Pass {
	return NewSuitePass(a, fset, files, pkg, info, NewFacts(), IndexSuppressions(fset, files))
}

// NewSuitePass builds a Pass wired into a suite run: facts is the store
// shared across the whole dependency walk, supp the suppression index
// shared by every analyzer's pass over this package.
func NewSuitePass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *Facts, supp *Suppressions) *Pass {
	for _, s := range supp.m {
		s.ran[a.Name] = true
	}
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		suppress:  supp,
		facts:     facts,
	}
}

// Reportf records a diagnostic at pos unless a justified suppression
// comment covers that line for this analyzer. An ignore comment matching
// the analyzer but missing a justification reports its own diagnostic (once
// per comment) and does not suppress.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if s, ok := p.suppress.m[suppressKey{position.Filename, position.Line}]; ok && s.matches(p.Analyzer.Name) {
		if s.reason != "" {
			s.used = true
			return
		}
		if !s.warned {
			s.warned = true
			p.diags = append(p.diags, Diagnostic{
				Pos:      position,
				Analyzer: p.Analyzer.Name,
				Message:  "lint:ignore comment needs a justification after the check list; the finding is not suppressed",
			})
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (s *suppression) matches(analyzer string) bool {
	for _, c := range s.checks {
		c = strings.TrimSpace(c)
		if c == "all" || c == checkPrefix+"all" || c == checkPrefix+analyzer || c == analyzer {
			return true
		}
	}
	return false
}

// Diagnostics returns the findings recorded so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.Slice(p.diags, func(i, j int) bool {
		a, b := p.diags[i], p.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return p.diags
}

// Preorder walks every file's AST in depth-first preorder, calling fn for
// each node. fn returning false prunes the subtree.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Run executes one analyzer over a typechecked package and returns its
// surviving diagnostics.
func Run(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	pass := NewPass(a, fset, files, pkg, info)
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.Diagnostics(), nil
}

// RunPass executes one analyzer over an already-built pass and returns its
// surviving diagnostics.
func RunPass(pass *Pass) ([]Diagnostic, error) {
	if err := pass.Analyzer.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", pass.Analyzer.Name, err)
	}
	return pass.Diagnostics(), nil
}
