// Command copmecs-vet runs the repo's custom static-analysis suite: the
// numeric analyzers (floatcmp, errdrop) and the concurrency-invariant
// analyzers (lockorder, unlockpath) described in internal/vet. CI gates
// every PR on a clean run.
//
// Usage:
//
//	copmecs-vet ./...
//	copmecs-vet -analyzers floatcmp,errdrop ./internal/eigen
//	copmecs-vet -tests -analyzers lockorder,unlockpath ./...
//	copmecs-vet -json ./... > results/VET.json
//	copmecs-vet -list
//
// -tests also loads _test.go files (external test packages type-check as
// "<path>_test"). -json replaces the line-per-finding output with a
// machine-readable report whose findings carry paths relative to the run
// directory, so CI can diff reports across runs.
//
// Exit status is 0 when no findings are reported, 1 when findings exist,
// and 2 when the driver itself fails (bad patterns, type errors).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"copmecs/internal/vet"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "copmecs-vet:", err)
	}
	os.Exit(code)
}

// run buffers stdout so finding writes share one latched error, surfaced
// by the final Flush.
func run(args []string, stdout io.Writer) (int, error) {
	bw := bufio.NewWriter(stdout)
	code, err := runBuffered(args, bw)
	if ferr := bw.Flush(); err == nil && ferr != nil {
		return 2, ferr
	}
	return code, err
}

func runBuffered(args []string, stdout *bufio.Writer) (int, error) {
	fs := flag.NewFlagSet("copmecs-vet", flag.ContinueOnError)
	var (
		names   = fs.String("analyzers", "", "comma-separated analyzers to run (default all)")
		list    = fs.Bool("list", false, "list available analyzers and exit")
		dir     = fs.String("C", ".", "directory to run in (module root or below)")
		tests   = fs.Bool("tests", false, "also load _test.go files (external test packages as <path>_test)")
		jsonOut = fs.Bool("json", false, "emit a machine-readable JSON report instead of one line per finding")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *list {
		for _, a := range vet.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	analyzers, err := vet.ByName(*names)
	if err != nil {
		return 2, err
	}
	pkgs, err := vet.LoadConfigured(*dir, fs.Args(), vet.LoadConfig{IncludeTests: *tests})
	if err != nil {
		return 2, err
	}
	findings := vet.RunAnalyzers(pkgs, analyzers)
	if *jsonOut {
		if err := writeJSON(stdout, *dir, pkgs, analyzers, findings); err != nil {
			return 2, err
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "copmecs-vet: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		return 1, nil
	}
	return 0, nil
}

// jsonReport is the -json output schema. Counts are zero-filled for every
// analyzer that ran, so a report diff shows exactly which rule regressed.
type jsonReport struct {
	// Packages is the number of packages analyzed.
	Packages int `json:"packages"`
	// Analyzers lists the analyzers that ran, in suite order.
	Analyzers []string `json:"analyzers"`
	// Total is the number of findings (vetignore directives included).
	Total int `json:"total"`
	// Counts maps analyzer name to its finding count, zero-filled.
	Counts map[string]int `json:"counts"`
	// Findings lists every finding, sorted by position.
	Findings []jsonFinding `json:"findings"`
}

// jsonFinding is one finding with a run-directory-relative path.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// writeJSON renders the report deterministically: findings arrive sorted
// from RunAnalyzers, counts marshal in sorted-key order, and paths are
// relative to the run directory so reports diff cleanly across machines.
func writeJSON(w io.Writer, dir string, pkgs []*vet.Package, analyzers []*vet.Analyzer, findings []vet.Finding) error {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	rep := jsonReport{
		Packages: len(pkgs),
		Total:    len(findings),
		Counts:   make(map[string]int, len(analyzers)),
		Findings: make([]jsonFinding, 0, len(findings)),
	}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
		rep.Counts[a.Name] = 0
	}
	for _, f := range findings {
		file := f.Pos.Filename
		if rel, err := filepath.Rel(abs, file); err == nil && !filepath.IsAbs(rel) {
			file = filepath.ToSlash(rel)
		}
		rep.Counts[f.Analyzer]++
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer: f.Analyzer,
			File:     file,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
