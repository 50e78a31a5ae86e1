package vet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The fixture importer serves export data for the stdlib packages the
// testdata fixtures use, shared across tests.
var (
	fixtureOnce sync.Once
	fixtureFset *token.FileSet
	fixtureImp  types.Importer
	fixtureErr  error
)

func fixtureImporter(t *testing.T) (*token.FileSet, types.Importer) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureFset = token.NewFileSet()
		fixtureImp, fixtureErr = newExportImporter(fixtureFset, ".",
			"bufio", "bytes", "errors", "fmt", "math", "os", "strings",
			"sync", "sync/atomic", "time")
	})
	if fixtureErr != nil {
		t.Fatalf("fixture importer: %v", fixtureErr)
	}
	return fixtureFset, fixtureImp
}

// loadFixture parses and type-checks one testdata directory as a package
// with the given import path (the path controls analyzer scoping).
func loadFixture(t *testing.T, dir, pkgpath string) *Package {
	t.Helper()
	fset, imp := fixtureImporter(t)
	entries, err := os.ReadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("read fixture dir %s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join("testdata", dir, e.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", e.Name(), err)
		}
		files = append(files, f)
	}
	tpkg, info, err := checkFiles(fset, imp, pkgpath, files)
	if err != nil {
		t.Fatalf("type-check fixture %s: %v", dir, err)
	}
	return &Package{Path: pkgpath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
}

// want is one expected finding: the 1-based source line and a substring of
// the message.
type want struct {
	line   int
	substr string
}

// runFixture applies one analyzer (with //vet:ignore suppression, as in
// production) and compares the findings against the expectations.
func runFixture(t *testing.T, a *Analyzer, dir, pkgpath string, wants []want) {
	t.Helper()
	pkg := loadFixture(t, dir, pkgpath)
	findings := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if len(findings) != len(wants) {
		t.Fatalf("%s on %s: got %d findings, want %d:\n%v", a.Name, dir, len(findings), len(wants), findings)
	}
	for i, w := range wants {
		f := findings[i]
		if f.Analyzer != a.Name {
			t.Errorf("finding %d: analyzer %q, want %q", i, f.Analyzer, a.Name)
		}
		if f.Pos.Line != w.line {
			t.Errorf("finding %d: line %d, want %d (%s)", i, f.Pos.Line, w.line, f)
		}
		if !strings.Contains(f.Message, w.substr) {
			t.Errorf("finding %d: message %q does not contain %q", i, f.Message, w.substr)
		}
	}
}

func TestFloatCmpTruePositives(t *testing.T) {
	runFixture(t, FloatCmp, "floatcmp_bad", "copmecs/internal/eigen", []want{
		{7, "floating-point == comparison of a and 0"},
		{10, "floating-point != comparison of xs[0] and b"},
		{13, "floating-point != comparison of a and b"},
	})
}

func TestFloatCmpClean(t *testing.T) {
	runFixture(t, FloatCmp, "floatcmp_clean", "copmecs/internal/eigen", nil)
}

func TestFloatCmpScopedToNumericPackages(t *testing.T) {
	// The same comparisons outside a numeric package are not flagged.
	runFixture(t, FloatCmp, "floatcmp_bad", "copmecs/internal/experiments", nil)
}

func TestErrDropTruePositives(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop_bad", "copmecs/internal/thing", []want{
		{18, "error result of thing.fail is discarded"},
		{19, "error result of thing.pair is discarded"},
		{20, "error result of thing.fail is discarded"},
		{21, "error result of thing.fail is discarded"},
		{22, "error result of os.Remove is discarded"},
	})
}

func TestErrDropClean(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop_clean", "copmecs/internal/thing", nil)
}

func TestErrDropScopedToInternalAndCmd(t *testing.T) {
	runFixture(t, ErrDrop, "errdrop_bad", "example.com/outside", nil)
}

func TestLockOrderTruePositives(t *testing.T) {
	runFixture(t, LockOrder, "lockorder_bad", "copmecs/internal/thing", []want{
		{17, "p.b is acquired while p.a is held"},
		{25, "p.a is acquired while p.b is held"},
		{42, "same class"},
	})
}

func TestLockOrderClean(t *testing.T) {
	runFixture(t, LockOrder, "lockorder_clean", "copmecs/internal/thing", nil)
}

func TestUnlockPathTruePositives(t *testing.T) {
	runFixture(t, UnlockPath, "unlockpath_bad", "copmecs/internal/thing", []want{
		{15, "still held at this return"},
		{26, "still held at the end of the function"},
		{32, "released on only some branches"},
		{43, "the end of a loop iteration"},
		{50, "r.mu.RLock() is still held at this return"},
	})
}

func TestUnlockPathClean(t *testing.T) {
	runFixture(t, UnlockPath, "unlockpath_clean", "copmecs/internal/thing", nil)
}

// TestVetIgnoreJustificationRequired checks directive validation: a
// justified directive suppresses, a bare or unknown-name directive is
// itself a vetignore finding and suppresses nothing.
func TestVetIgnoreJustificationRequired(t *testing.T) {
	pkg := loadFixture(t, "vetignore_bad", "copmecs/internal/thing")
	findings := RunAnalyzers([]*Package{pkg}, []*Analyzer{ErrDrop})
	wants := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{15, "errdrop", "os.Remove is discarded"},
		{15, "vetignore", "needs a justification"},
		{20, "errdrop", "os.Remove is discarded"},
		{20, "vetignore", "unknown analyzer"},
	}
	if len(findings) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(wants), findings)
	}
	for i, w := range wants {
		f := findings[i]
		if f.Pos.Line != w.line || f.Analyzer != w.analyzer || !strings.Contains(f.Message, w.substr) {
			t.Errorf("finding %d = %v, want line %d analyzer %s containing %q", i, f, w.line, w.analyzer, w.substr)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want %d", len(all), err, len(All()))
	}
	two, err := ByName("floatcmp, errdrop")
	if err != nil || len(two) != 2 || two[0].Name != "floatcmp" || two[1].Name != "errdrop" {
		t.Fatalf("ByName(floatcmp, errdrop) = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded, want error")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Analyzer: "floatcmp",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "msg",
	}
	if got, wantStr := f.String(), "x.go:3:7: [floatcmp] msg"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}

// TestLoadModulePackage drives the production loader end-to-end on a real
// module package and asserts the suite finds nothing to complain about.
func TestLoadModulePackage(t *testing.T) {
	pkgs, err := Load("../..", []string{"./internal/numeric"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "copmecs/internal/numeric" {
		t.Fatalf("Load = %+v, want the single numeric package", pkgs)
	}
	if findings := RunAnalyzers(pkgs, All()); len(findings) != 0 {
		t.Errorf("unexpected findings on internal/numeric:\n%v", findings)
	}
}
