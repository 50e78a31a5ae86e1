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
//	copmecs-vet -list
//
// -tests also loads _test.go files (external test packages type-check as
// "<path>_test").
//
// Exit status is 0 when no findings are reported, 1 when findings exist,
// and 2 when the driver itself fails (bad patterns, type errors).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

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
		names = fs.String("analyzers", "", "comma-separated analyzers to run (default all)")
		list  = fs.Bool("list", false, "list available analyzers and exit")
		dir   = fs.String("C", ".", "directory to run in (module root or below)")
		tests = fs.Bool("tests", false, "also load _test.go files (external test packages as <path>_test)")
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
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "copmecs-vet: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		return 1, nil
	}
	return 0, nil
}
