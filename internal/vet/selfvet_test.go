package vet

import "testing"

// TestSelfVet runs the full suite over the analyzer engine and the
// command tree: the checker holds itself to its own invariants.
func TestSelfVet(t *testing.T) {
	pkgs, err := LoadConfigured("../..", []string{"./internal/vet", "./cmd/..."}, LoadConfig{})
	if err != nil {
		t.Fatalf("LoadConfigured: %v", err)
	}
	if findings := RunAnalyzers(pkgs, All()); len(findings) != 0 {
		t.Errorf("the vet engine does not pass its own suite:\n%v", findings)
	}
}

// TestFullTreeClean is the regression gate the acceptance criteria name:
// zero unsuppressed findings module-wide. When it fails, the finding list
// in the test log points at the offending file:line.
func TestFullTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree load is not short")
	}
	pkgs, err := LoadConfigured("../..", []string{"./..."}, LoadConfig{})
	if err != nil {
		t.Fatalf("LoadConfigured: %v", err)
	}
	if findings := RunAnalyzers(pkgs, All()); len(findings) != 0 {
		t.Errorf("tree is not vet-clean:\n%v", findings)
	}
}

// TestFullTreeConcurrencyWithTests mirrors the CI job that runs the
// concurrency analyzers over _test.go files too: test goroutine storms
// have the same atomic- and lock-discipline bugs as production code.
func TestFullTreeConcurrencyWithTests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tree load is not short")
	}
	pkgs, err := LoadConfigured("../..", []string{"./..."}, LoadConfig{IncludeTests: true})
	if err != nil {
		t.Fatalf("LoadConfigured: %v", err)
	}
	concurrency, err := ByName("lockorder,unlockpath")
	if err != nil {
		t.Fatal(err)
	}
	if findings := RunAnalyzers(pkgs, concurrency); len(findings) != 0 {
		t.Errorf("tree (tests included) violates a concurrency invariant:\n%v", findings)
	}
}
