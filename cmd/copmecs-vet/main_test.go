package main

import (
	"strings"
	"testing"
)

// runVet invokes the driver against the module root and returns its
// output and exit code.
func runVet(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var sb strings.Builder
	code, err := run(append([]string{"-C", "../.."}, args...), &sb)
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return sb.String(), code
}

func TestListIncludesConcurrencyAnalyzers(t *testing.T) {
	out, code := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, name := range []string{"floatcmp", "errdrop", "lockorder", "unlockpath"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output lacks %s:\n%s", name, out)
		}
	}
}

func TestAnalyzersFilter(t *testing.T) {
	// The lockorder fixture trips lockorder and unlockpath; narrowed to the
	// numeric analyzers, the same package is clean.
	const fixture = "./internal/vet/testdata/lockorder_bad"
	out, code := runVet(t, fixture)
	if code != 1 || !strings.Contains(out, "[lockorder]") {
		t.Fatalf("full suite: exit %d, want 1 with lockorder findings:\n%s", code, out)
	}
	out, code = runVet(t, "-analyzers", "floatcmp,errdrop", fixture)
	if code != 0 || out != "" {
		t.Errorf("filtered suite: exit %d, want 0 and no output:\n%s", code, out)
	}
}

func TestTestsFlagLoadsTestPackages(t *testing.T) {
	out, code := runVet(t, "-tests", "-analyzers", "lockorder,unlockpath", "./internal/serve")
	if code != 0 {
		t.Errorf("serve tests violate a concurrency invariant (exit %d):\n%s", code, out)
	}
}

func TestUnknownAnalyzerFails(t *testing.T) {
	var sb strings.Builder
	code, err := run([]string{"-analyzers", "nosuch", "./..."}, &sb)
	if code != 2 || err == nil {
		t.Fatalf("unknown analyzer: code %d err %v, want 2 and an error", code, err)
	}
}
