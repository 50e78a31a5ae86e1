package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// heldLock is one mutex acquisition tracked through a function body.
type heldLock struct {
	// class is the type-level identity: every instance of one struct field
	// shares a class, because lock ordering is a property of the type.
	class lockClass
	// key is the instance identity — the receiver's source expression — so
	// a.mu.Unlock() never pairs with b.mu.Lock().
	key string
	// name is the display form used in findings (same as key).
	name string
	// read marks an RLock acquisition.
	read bool
	// deferred is set once a matching deferred unlock is registered.
	deferred bool
	// pos is the acquisition site; analyzers dedupe findings on it.
	pos token.Pos
}

// lockClass identifies a lock at the type level. obj is the field or
// variable object when the type-checker can resolve the receiver; key is
// the source-expression fallback for everything else.
type lockClass struct {
	obj types.Object
	key string
}

// syncLockOp is a classified sync mutex method call.
type syncLockOp struct {
	// recv is the receiver expression (the mutex being operated on).
	recv ast.Expr
	// name is one of Lock, Unlock, RLock, RUnlock.
	name string
}

// classifyLockOp recognizes Lock/Unlock/RLock/RUnlock calls whose method
// is declared in package sync (sync.Mutex, sync.RWMutex, or the
// sync.Locker interface — embedded promotions included).
func classifyLockOp(info *types.Info, call *ast.CallExpr) *syncLockOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
			return nil
		}
		return &syncLockOp{recv: sel.X, name: fn.Name()}
	}
	return nil
}

// branchFrame collects the held-sets flowing out of break or continue
// statements targeting one loop, switch, or select.
type branchFrame struct {
	sets [][]*heldLock
}

// lockflow walks every function body in a package tracking which sync
// mutexes are held, branch-sensitively: if/else arms run on cloned
// held-sets and re-merge, loop bodies are checked for per-iteration
// balance, and switch/select clauses merge like branches. It powers
// lockorder and unlockpath. Limits, by design: TryLock results, Locker
// values passed around as data, and helpers that lock on behalf of their
// caller are not modeled — suppress with //vet:ignore where such a
// pattern is intentional.
type lockflow struct {
	pass *Pass
	// onAcquire fires when acq is taken while held is non-empty.
	onAcquire func(held []*heldLock, acq *heldLock)
	// onEscape fires when control leaves the function (or finishes a loop
	// iteration) with lk held and no deferred unlock registered.
	onEscape func(lk *heldLock, pos token.Pos, kind string)
	// onDivergence fires when two merging branches disagree about lk.
	onDivergence func(lk *heldLock, pos token.Pos)

	breakFrames    []*branchFrame
	continueFrames []*branchFrame
}

// walk runs the tracker over every function and function literal in the
// package. Each literal is its own entry point with an empty held-set;
// walkStmt never descends into nested literals.
func (w *lockflow) walk() {
	for _, file := range w.pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.walkBody(fn.Body)
				}
			case *ast.FuncLit:
				w.walkBody(fn.Body)
			}
			return true
		})
	}
}

func (w *lockflow) walkBody(body *ast.BlockStmt) {
	held, terminated := w.walkStmts(body.List, nil)
	if terminated {
		return
	}
	for _, lk := range held {
		if !lk.deferred {
			w.escape(lk, body.Rbrace, "the end of the function")
		}
	}
}

// walkStmts threads the held-set through a statement list, stopping at
// the first terminating statement (return, panic, break, ...).
func (w *lockflow) walkStmts(stmts []ast.Stmt, held []*heldLock) ([]*heldLock, bool) {
	for _, s := range stmts {
		var terminated bool
		held, terminated = w.walkStmt(s, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (w *lockflow) walkStmt(stmt ast.Stmt, held []*heldLock) ([]*heldLock, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if isBuiltinPanic(w.pass.Info, call) {
				return held, true
			}
			held = w.applyCall(call, held)
		}
	case *ast.DeferStmt:
		w.registerDefer(s.Call, held)
	case *ast.ReturnStmt:
		for _, lk := range held {
			if !lk.deferred {
				w.escape(lk, s.Pos(), "this return")
			}
		}
		return held, true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if fr := top(w.breakFrames); fr != nil {
				fr.sets = append(fr.sets, cloneLocks(held))
			}
		case token.CONTINUE:
			if fr := top(w.continueFrames); fr != nil {
				fr.sets = append(fr.sets, cloneLocks(held))
			}
		}
		return held, true
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		return w.walkIf(s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			var term bool
			if held, term = w.walkStmt(s.Init, held); term {
				return held, true
			}
		}
		return w.walkLoop(s.Body, held, s.Cond == nil)
	case *ast.RangeStmt:
		return w.walkLoop(s.Body, held, false)
	case *ast.SwitchStmt:
		return w.walkClauses(s.Body, held, true, s.End())
	case *ast.TypeSwitchStmt:
		return w.walkClauses(s.Body, held, true, s.End())
	case *ast.SelectStmt:
		return w.walkClauses(s.Body, held, false, s.End())
	}
	return held, false
}

func (w *lockflow) walkIf(s *ast.IfStmt, held []*heldLock) ([]*heldLock, bool) {
	if s.Init != nil {
		var term bool
		if held, term = w.walkStmt(s.Init, held); term {
			return held, true
		}
	}
	var sets [][]*heldLock
	if thenHeld, thenTerm := w.walkStmts(s.Body.List, cloneLocks(held)); !thenTerm {
		sets = append(sets, thenHeld)
	}
	elseHeld, elseTerm := cloneLocks(held), false
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseHeld, elseTerm = w.walkStmts(e.List, cloneLocks(held))
	case *ast.IfStmt:
		elseHeld, elseTerm = w.walkIf(e, cloneLocks(held))
	}
	if !elseTerm {
		sets = append(sets, elseHeld)
	}
	return w.mergeBranches(sets, s.End())
}

// walkLoop handles for and range bodies. A lock taken during an
// iteration and still held when the body ends (or at a continue) would be
// re-acquired next iteration, so it is reported as an escape; the body is
// then walked a second time with those locks held so cross-iteration
// acquisition order (a barrier over an array of locks) surfaces as lock-order
// edges. An infinite `for` exits only through its collected break-sets.
func (w *lockflow) walkLoop(body *ast.BlockStmt, held []*heldLock, infinite bool) ([]*heldLock, bool) {
	bfr, cfr := &branchFrame{}, &branchFrame{}
	w.breakFrames = append(w.breakFrames, bfr)
	w.continueFrames = append(w.continueFrames, cfr)
	bodyHeld, bodyTerm := w.walkStmts(body.List, cloneLocks(held))
	iterEnds := append([][]*heldLock{}, cfr.sets...)
	if !bodyTerm {
		iterEnds = append(iterEnds, bodyHeld)
	}
	entry := lockKeys(held, true)
	leaked := false
	for _, set := range iterEnds {
		for _, lk := range set {
			if lk.deferred {
				continue
			}
			if _, ok := entry[modeKey(lk)]; ok {
				continue
			}
			w.escape(lk, body.Rbrace, "the end of a loop iteration")
			leaked = true
		}
	}
	if leaked && !bodyTerm {
		w.walkStmts(body.List, cloneLocks(bodyHeld))
	}
	w.breakFrames = w.breakFrames[:len(w.breakFrames)-1]
	w.continueFrames = w.continueFrames[:len(w.continueFrames)-1]
	if infinite {
		return w.mergeBranches(bfr.sets, body.End())
	}
	return held, false
}

// walkClauses handles switch, type-switch, and select bodies. Each clause
// runs on a cloned held-set; the fall-through sets (plus any break-sets,
// plus the entry set when a switch has no default) merge like branches.
// entryFallthrough is false for select, which always executes one clause.
func (w *lockflow) walkClauses(body *ast.BlockStmt, held []*heldLock, entryFallthrough bool, end token.Pos) ([]*heldLock, bool) {
	fr := &branchFrame{}
	w.breakFrames = append(w.breakFrames, fr)
	hasDefault := false
	var sets [][]*heldLock
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			stmts = c.Body
		}
		if chHeld, chTerm := w.walkStmts(stmts, cloneLocks(held)); !chTerm {
			sets = append(sets, chHeld)
		}
	}
	w.breakFrames = w.breakFrames[:len(w.breakFrames)-1]
	sets = append(sets, fr.sets...)
	if entryFallthrough && !hasDefault {
		sets = append(sets, cloneLocks(held))
	}
	return w.mergeBranches(sets, end)
}

// mergeBranches joins the surviving fall-through sets of a construct,
// reporting locks that only some branches still hold. No surviving set
// means every branch terminated. The first set wins as the merged state.
func (w *lockflow) mergeBranches(sets [][]*heldLock, pos token.Pos) ([]*heldLock, bool) {
	if len(sets) == 0 {
		return nil, true
	}
	first := lockKeys(sets[0], false)
	for _, other := range sets[1:] {
		ok := lockKeys(other, false)
		for k, lk := range first {
			if _, in := ok[k]; !in {
				w.diverge(lk, pos)
			}
		}
		for k, lk := range ok {
			if _, in := first[k]; !in {
				w.diverge(lk, pos)
			}
		}
	}
	return sets[0], false
}

// applyCall updates the held-set for a direct mutex method call.
func (w *lockflow) applyCall(call *ast.CallExpr, held []*heldLock) []*heldLock {
	op := classifyLockOp(w.pass.Info, call)
	if op == nil {
		return held
	}
	recv := ast.Unparen(op.recv)
	switch op.name {
	case "Lock", "RLock":
		lk := &heldLock{
			class: w.classOf(recv),
			key:   types.ExprString(recv),
			name:  types.ExprString(recv),
			read:  op.name == "RLock",
			pos:   call.Pos(),
		}
		if len(held) > 0 && w.onAcquire != nil {
			w.onAcquire(held, lk)
		}
		held = append(held, lk)
	case "Unlock", "RUnlock":
		read := op.name == "RUnlock"
		key := types.ExprString(recv)
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key && held[i].read == read {
				held = append(held[:i:i], held[i+1:]...)
				break
			}
		}
	}
	return held
}

// registerDefer marks held locks released by `defer mu.Unlock()` or by
// unlock calls anywhere inside a deferred function literal.
func (w *lockflow) registerDefer(call *ast.CallExpr, held []*heldLock) {
	mark := func(c *ast.CallExpr) {
		op := classifyLockOp(w.pass.Info, c)
		if op == nil || (op.name != "Unlock" && op.name != "RUnlock") {
			return
		}
		read := op.name == "RUnlock"
		key := types.ExprString(ast.Unparen(op.recv))
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == key && held[i].read == read && !held[i].deferred {
				held[i].deferred = true
				return
			}
		}
	}
	mark(call)
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				mark(c)
			}
			return true
		})
	}
}

// classOf resolves the receiver to its type-level lock class: the field
// object for field selections (shared by all instances), the variable
// object for identifiers, and the source expression otherwise.
func (w *lockflow) classOf(recv ast.Expr) lockClass {
	recv = ast.Unparen(recv)
	switch x := recv.(type) {
	case *ast.Ident:
		if obj := w.pass.Info.Uses[x]; obj != nil {
			return lockClass{obj: obj}
		}
	case *ast.SelectorExpr:
		if s, ok := w.pass.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return lockClass{obj: s.Obj()}
		}
		if obj := w.pass.Info.Uses[x.Sel]; obj != nil {
			return lockClass{obj: obj}
		}
	case *ast.IndexExpr:
		return w.classOf(x.X)
	}
	return lockClass{key: types.ExprString(recv)}
}

func (w *lockflow) escape(lk *heldLock, pos token.Pos, kind string) {
	if w.onEscape != nil {
		w.onEscape(lk, pos, kind)
	}
}

func (w *lockflow) diverge(lk *heldLock, pos token.Pos) {
	if w.onDivergence != nil {
		w.onDivergence(lk, pos)
	}
}

// cloneLocks deep-copies a held-set so branch walks cannot alias each
// other's deferred flags.
func cloneLocks(held []*heldLock) []*heldLock {
	out := make([]*heldLock, len(held))
	for i, lk := range held {
		c := *lk
		out[i] = &c
	}
	return out
}

// modeKey is the pairing key: instance expression plus read/write mode.
func modeKey(lk *heldLock) string {
	if lk.read {
		return lk.key + "\x00r"
	}
	return lk.key
}

// lockKeys indexes a held-set by modeKey; includeDeferred keeps locks
// whose release is already deferred.
func lockKeys(set []*heldLock, includeDeferred bool) map[string]*heldLock {
	out := make(map[string]*heldLock, len(set))
	for _, lk := range set {
		if lk.deferred && !includeDeferred {
			continue
		}
		out[modeKey(lk)] = lk
	}
	return out
}

func top(frames []*branchFrame) *branchFrame {
	if n := len(frames); n > 0 {
		return frames[n-1]
	}
	return nil
}

// isBuiltinPanic reports whether the call is the predeclared panic.
func isBuiltinPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}
