// Package vet implements copmecs-vet, the repo's custom static-analysis
// suite. It enforces invariants the compiler cannot see but the paper's
// results depend on:
//
//   - floatcmp: no raw == / != between floating-point operands in the
//     numeric packages (eigen, matrix, spectral, core, mincut) — the
//     spectral min-cut and greedy allocation require tolerance-aware
//     comparisons via internal/numeric.
//   - errdrop: no silently discarded error results in internal/ and cmd/
//     — eigensolver convergence errors and journal write failures must be
//     handled or explicitly acknowledged with `_ =`.
//
// The concurrency-invariant analyzers guard the serving hot path's lock
// discipline (DESIGN.md §10), the bug classes the race detector only
// catches when a test happens to exercise the interleaving:
//
//   - lockorder: the per-package lock-acquisition graph (locks taken while
//     another lock is held) must be acyclic, or two goroutines taking the
//     edges in opposite orders deadlock.
//   - unlockpath: a mutex Lock whose Unlock is neither deferred nor present
//     on every path out of the function leaks the lock on the missed path.
//
// The driver is stdlib-only (go/ast, go/parser, go/types); imports are
// resolved from compiler export data produced by `go list -export`, so the
// module stays dependency-free.
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Pos locates the offending expression or declaration.
	Pos token.Position
	// Message explains the violation and the suggested fix.
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	// Fset maps AST positions back to source locations.
	Fset *token.FileSet
	// Files are the package's parsed files (test files included when the
	// loader ran with IncludeTests).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info carries the type-checker's expression and identifier facts.
	Info *types.Info
	// Path is the package's import path.
	Path string
}

// Analyzer is one pluggable rule.
type Analyzer struct {
	// Name identifies the analyzer in findings and //vet:ignore directives.
	Name string
	// Doc is a one-line description shown by `copmecs-vet -list`.
	Doc string
	// Run inspects one package and returns its findings.
	Run func(*Pass) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{FloatCmp, ErrDrop, LockOrder, UnlockPath}
}

// ConcurrencyAnalyzers returns the subset guarding lock discipline — the
// analyzers CI also runs over test files, because test goroutine storms hit
// the same bug classes as production code.
func ConcurrencyAnalyzers() []*Analyzer {
	return []*Analyzer{LockOrder, UnlockPath}
}

// ByName resolves a comma-separated analyzer list against All; an unknown
// name is an error.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("vet: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective matches `//vet:ignore name[,name...] reason`. The
// directive suppresses matching findings on its own source line, for the
// rare spot where the flagged pattern is semantically required (e.g.
// testing a sentinel bit pattern, or a deliberate lock handoff). The
// justification is mandatory: a bare directive suppresses nothing and is
// itself reported, so every exception stays auditable at the call site.
var ignoreDirective = regexp.MustCompile(`^//vet:ignore\s+([a-z,]+)\s*(.*)$`)

// ignores collects the suppressed analyzer names per file line, and
// reports malformed directives — a missing justification or an analyzer
// name that matches nothing — as findings of the pseudo-analyzer
// "vetignore" (emitted by every run and not themselves suppressible).
func ignores(fset *token.FileSet, files []*ast.File) (map[string]map[int]map[string]bool, []Finding) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	out := make(map[string]map[int]map[string]bool)
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//vet:ignore") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := ignoreDirective.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Finding{
						Analyzer: "vetignore",
						Pos:      pos,
						Message:  "//vet:ignore needs a justification: `//vet:ignore <analyzer>[,<analyzer>] <reason>`; an unjustified directive suppresses nothing",
					})
					continue
				}
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					out[pos.Filename] = lines
				}
				names := lines[pos.Line]
				if names == nil {
					names = make(map[string]bool)
					lines[pos.Line] = names
				}
				for _, n := range strings.Split(m[1], ",") {
					if !known[n] {
						bad = append(bad, Finding{
							Analyzer: "vetignore",
							Pos:      pos,
							Message:  fmt.Sprintf("//vet:ignore names unknown analyzer %q", n),
						})
						continue
					}
					names[n] = true
				}
			}
		}
	}
	return out, bad
}

// RunAnalyzers applies each analyzer to each package, drops findings
// suppressed by //vet:ignore directives, and returns the rest sorted by
// position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Path: pkg.Path}
		ign, bad := ignores(pkg.Fset, pkg.Files)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			for _, f := range a.Run(pass) {
				if names, ok := ign[f.Pos.Filename][f.Pos.Line]; ok && names[f.Analyzer] {
					continue
				}
				findings = append(findings, f)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}
