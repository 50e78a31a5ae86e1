package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cacheLine is the coherence granule the padded hot-path structs tile.
const cacheLine = 64

// AtomicAlign checks the memory-layout claim the padded concurrency code
// relies on but the compiler never verifies: a struct that declares a
// cache-line pad (a blank `_ [N]byte` field) next to sync state must
// actually tile 64-byte lines under the canonical gc/amd64 layout. Every
// pad must end on a 64-byte boundary and the whole struct must be a
// multiple of 64 bytes, or adjacent array elements false-share the line the
// pad was meant to isolate. (64-bit atomics need no alignment check here:
// the tree uses only the atomic.Int64-style types, which the compiler
// aligns on every target.)
var AtomicAlign = &Analyzer{
	Name: "atomicalign",
	Doc:  "flag cache-line pads that do not tile 64 bytes",
	Run:  runAtomicAlign,
}

func runAtomicAlign(pass *Pass) []Finding {
	if !strings.Contains(pass.Path, "internal/") && !strings.Contains(pass.Path, "cmd/") {
		return nil
	}
	var findings []Finding
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj := pass.Info.Defs[ts.Name]
			if obj == nil {
				return true
			}
			strct, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || strct.NumFields() == 0 || sizedByTypeParam(strct) {
				return true
			}
			findings = append(findings, checkCacheLinePads(pass, ts, st, strct)...)
			return true
		})
	}
	return findings
}

// sizedByTypeParam reports whether t's size depends on a type parameter: a
// generic declaration, or a struct local to a generic function, holding a
// type-parameter-typed value directly, in an array or inside a by-value
// struct. Such a type has no layout before instantiation (types.Sizes
// panics on it), so the layout checks skip it. Pointers, slices, maps,
// channels, functions and interfaces are fixed-size whatever they refer to.
func sizedByTypeParam(t types.Type) bool {
	switch t := types.Unalias(t).(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		return sizedByTypeParam(t.Underlying())
	case *types.Array:
		return sizedByTypeParam(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if sizedByTypeParam(t.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// checkCacheLinePads verifies that a pad-annotated struct with sync state
// actually tiles 64-byte cache lines.
func checkCacheLinePads(pass *Pass, ts *ast.TypeSpec, st *ast.StructType, strct *types.Struct) []Finding {
	n := strct.NumFields()
	fields := make([]*types.Var, n)
	hasSync, hasPad := false, false
	for i := 0; i < n; i++ {
		f := strct.Field(i)
		fields[i] = f
		if isSyncState(f.Type()) {
			hasSync = true
		}
		if isPadField(f) {
			hasPad = true
		}
	}
	if !hasSync || !hasPad {
		return nil
	}
	offsets := pass.Sizes.Offsetsof(fields)
	var findings []Finding
	for i, f := range fields {
		if !isPadField(f) {
			continue
		}
		end := offsets[i] + pass.Sizes.Sizeof(f.Type())
		if end%cacheLine != 0 {
			findings = append(findings, Finding{
				Analyzer: "atomicalign",
				Pos:      pass.Fset.Position(fieldPos(pass, st, f)),
				Message: fmt.Sprintf("cache-line pad ends at offset %d, not a multiple of %d; the fields it claims to separate share a line — resize the pad so the preceding field group fills the line",
					end, cacheLine),
			})
		}
	}
	if total := pass.Sizes.Sizeof(strct); total%cacheLine != 0 {
		findings = append(findings, Finding{
			Analyzer: "atomicalign",
			Pos:      pass.Fset.Position(ts.Name.Pos()),
			Message: fmt.Sprintf("%s is %d bytes but declares cache-line padding; adjacent instances in an array false-share unless the size is a multiple of %d",
				ts.Name.Name, total, cacheLine),
		})
	}
	return findings
}

// isPadField reports a blank byte-array spacer like `_ [56]byte`.
func isPadField(f *types.Var) bool {
	if f.Name() != "_" {
		return false
	}
	arr, ok := f.Type().Underlying().(*types.Array)
	if !ok {
		return false
	}
	b, ok := arr.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// isSyncState reports whether a field type is declared in sync or
// sync/atomic (Mutex, RWMutex, atomic.Uint64, ...).
func isSyncState(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "sync" || p == "sync/atomic"
}

// fieldPos locates a struct field's declared name in the AST.
func fieldPos(pass *Pass, st *ast.StructType, v *types.Var) token.Pos {
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if pass.Info.Defs[name] == v {
				return name.Pos()
			}
		}
	}
	return st.Pos()
}
