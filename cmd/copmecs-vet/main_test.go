package main

import (
	"encoding/json"
	"strings"
	"testing"

	"copmecs/internal/vet"
)

// report mirrors the -json schema for assertions.
type report struct {
	Packages  int            `json:"packages"`
	Analyzers []string       `json:"analyzers"`
	Total     int            `json:"total"`
	Counts    map[string]int `json:"counts"`
	Findings  []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
	} `json:"findings"`
}

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

func TestJSONReportZeroFilled(t *testing.T) {
	out, code := runVet(t, "-json", "./internal/numeric")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if rep.Packages != 1 || rep.Total != 0 || len(rep.Findings) != 0 {
		t.Errorf("report = %+v, want 1 clean package", rep)
	}
	if len(rep.Counts) != len(vet.All()) {
		t.Errorf("counts has %d entries, want one per analyzer (%d)", len(rep.Counts), len(vet.All()))
	}
	if n, ok := rep.Counts["unlockpath"]; !ok || n != 0 {
		t.Errorf("counts not zero-filled: %v", rep.Counts)
	}
}

func TestAnalyzersFilter(t *testing.T) {
	out, code := runVet(t, "-json", "-analyzers", "lockorder,unlockpath", "./internal/serve")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if len(rep.Analyzers) != 2 || len(rep.Counts) != 2 {
		t.Errorf("filter did not narrow the suite: analyzers=%v counts=%v", rep.Analyzers, rep.Counts)
	}
}

func TestTestsFlagLoadsTestPackages(t *testing.T) {
	out, code := runVet(t, "-tests", "-analyzers", "lockorder,unlockpath", "-json", "./internal/serve")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var rep report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	if rep.Total != 0 {
		t.Errorf("serve tests violate a concurrency invariant:\n%s", out)
	}
}

func TestUnknownAnalyzerFails(t *testing.T) {
	var sb strings.Builder
	code, err := run([]string{"-analyzers", "nosuch", "./..."}, &sb)
	if code != 2 || err == nil {
		t.Fatalf("unknown analyzer: code %d err %v, want 2 and an error", code, err)
	}
}
