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

// AtomicAlign checks the two memory-layout claims the concurrency code
// relies on but the compiler never verifies:
//
//  1. A plain int64/uint64 field driven through sync/atomic must sit at an
//     8-byte-aligned offset under the GOARCH=386 layout — on 32-bit
//     targets a misaligned 64-bit atomic op panics at runtime. (Fields of
//     type atomic.Int64/Uint64 are exempt: the runtime's align64 marker
//     guarantees their alignment everywhere, which go/types cannot see —
//     migrating to those types is also the suggested fix.)
//  2. A struct that declares a cache-line pad (a blank `_ [N]byte` field)
//     next to sync state must actually tile 64-byte lines under the
//     canonical gc/amd64 layout: every pad must end on a 64-byte boundary
//     and the whole struct must be a multiple of 64 bytes, or adjacent
//     array elements false-share the line the pad was meant to isolate.
var AtomicAlign = &Analyzer{
	Name: "atomicalign",
	Doc:  "flag 64-bit atomics misaligned on 32-bit layouts and cache-line pads that do not tile 64 bytes",
	Run:  runAtomicAlign,
}

func runAtomicAlign(pass *Pass) []Finding {
	if !strings.Contains(pass.Path, "internal/") && !strings.Contains(pass.Path, "cmd/") {
		return nil
	}
	targets, _ := atomicTargets(pass)
	sizes386 := types.SizesFor("gc", "386")
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
			findings = append(findings, check386Alignment(pass, st, strct, targets, sizes386)...)
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

// check386Alignment flags atomically-accessed plain 64-bit fields whose
// offset under the 32-bit layout is not 8-byte aligned.
func check386Alignment(pass *Pass, st *ast.StructType, strct *types.Struct, targets map[*types.Var]atomicTarget, sizes types.Sizes) []Finding {
	n := strct.NumFields()
	fields := make([]*types.Var, n)
	for i := 0; i < n; i++ {
		fields[i] = strct.Field(i)
	}
	offsets := sizes.Offsetsof(fields)
	var findings []Finding
	for i, f := range fields {
		if _, ok := targets[f]; !ok {
			continue
		}
		b, ok := f.Type().Underlying().(*types.Basic)
		if !ok {
			continue
		}
		if k := b.Kind(); k != types.Int64 && k != types.Uint64 {
			continue
		}
		if offsets[i]%8 == 0 {
			continue
		}
		findings = append(findings, Finding{
			Analyzer: "atomicalign",
			Pos:      pass.Fset.Position(fieldPos(pass, st, f)),
			Message: fmt.Sprintf("%s is a 64-bit atomic at offset %d under GOARCH=386, not 8-byte aligned; the atomic op panics on 32-bit targets — move it to the front of the struct or use atomic.%s",
				f.Name(), offsets[i], suggestedAtomicType(f.Type())),
		})
	}
	return findings
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
