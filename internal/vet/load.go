package vet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, parsed, and type-checked target package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's source directory.
	Dir string
	// Fset is the file set shared by all loaded packages.
	Fset *token.FileSet
	// Files are the parsed Go files (test files included when the loader
	// ran with IncludeTests).
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker facts analyzers consult.
	Info *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	Error        *listError
}

// listError mirrors the Error field of `go list -json`.
type listError struct {
	Err string
}

// goList runs `go list` with the given arguments in dir and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", args, err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s", p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data files, keeping
// the driver free of non-stdlib dependencies.
type exportImporter struct {
	gc types.Importer
}

// newExportImporter builds an importer backed by `go list -deps -export`
// over the given patterns, run in dir. Every package the patterns
// transitively reach becomes importable.
func newExportImporter(fset *token.FileSet, dir string, patterns ...string) (types.Importer, error) {
	return newExportImporterArgs(fset, dir, []string{"-deps", "-export", "-json"}, patterns)
}

// newExportImporterTests is newExportImporter with `-test`, so export data
// also covers dependencies only test files import.
func newExportImporterTests(fset *token.FileSet, dir string, patterns ...string) (types.Importer, error) {
	return newExportImporterArgs(fset, dir, []string{"-test", "-deps", "-export", "-json"}, patterns)
}

func newExportImporterArgs(fset *token.FileSet, dir string, args, patterns []string) (types.Importer, error) {
	deps, err := goList(dir, append(args, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, p := range deps {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("vet: no export data for %q", path)
		}
		return os.Open(file)
	}
	return &exportImporter{gc: importer.ForCompiler(fset, "gc", lookup)}, nil
}

// Import implements types.Importer.
func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.Import(path)
}

// newInfo allocates the types.Info maps analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// checkFiles type-checks one package's parsed files with the shared
// importer and returns the typed package plus its Info.
func checkFiles(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := newInfo()
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, nil, fmt.Errorf("vet: type-check %s: %w", path, errors.Join(typeErrs...))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("vet: type-check %s: %w", path, err)
	}
	return tpkg, info, nil
}

// LoadConfig tunes LoadConfigured's package selection.
type LoadConfig struct {
	// IncludeTests adds each package's test files: in-package _test.go
	// files join the package's own files, and external (package foo_test)
	// files type-check as their own package under "<path>_test". The
	// concurrency analyzers run over tests in CI because goroutine storms
	// in tests have the same atomic- and lock-discipline bugs as
	// production code.
	IncludeTests bool
}

// LoadConfigured resolves the patterns (e.g. "./...") in dir with the go
// tool, parses every matched package's files, and type-checks them against
// export data for all transitive dependencies. Test files are excluded
// unless cfg.IncludeTests is set: the reproducibility invariants guard
// production code, and tests legitimately use fixed ad-hoc randomness and
// exact comparisons; only the concurrency analyzers also cover tests.
func LoadConfigured(dir string, patterns []string, cfg LoadConfig) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, append([]string{"-json"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var imp types.Importer
	if cfg.IncludeTests {
		imp, err = newExportImporterTests(fset, dir, patterns...)
	} else {
		imp, err = newExportImporter(fset, dir, patterns...)
	}
	if err != nil {
		return nil, err
	}
	parse := func(t listPackage, names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("vet: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		return files, nil
	}
	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			continue
		}
		names := t.GoFiles
		if cfg.IncludeTests {
			names = append(append([]string{}, names...), t.TestGoFiles...)
		}
		if len(names) > 0 {
			files, err := parse(t, names)
			if err != nil {
				return nil, err
			}
			tpkg, info, err := checkFiles(fset, imp, t.ImportPath, files)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, &Package{
				Path:  t.ImportPath,
				Dir:   t.Dir,
				Fset:  fset,
				Files: files,
				Types: tpkg,
				Info:  info,
			})
		}
		if cfg.IncludeTests && len(t.XTestGoFiles) > 0 {
			files, err := parse(t, t.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			xpath := t.ImportPath + "_test"
			tpkg, info, err := checkFiles(fset, imp, xpath, files)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, &Package{
				Path:  xpath,
				Dir:   t.Dir,
				Fset:  fset,
				Files: files,
				Types: tpkg,
				Info:  info,
			})
		}
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("vet: no packages matched %v", patterns)
	}
	return pkgs, nil
}
