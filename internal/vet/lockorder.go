package vet

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
)

// LockOrder builds the package's lock-acquisition graph — an edge A→B for
// every place lock B is taken while A is held — and rejects cycles. Two
// goroutines traversing a cycle's edges in opposite orders deadlock, and
// unlike a leaked lock the window is timing-dependent, so tests rarely
// catch it. Classes are type-level: every instance of one struct field is
// the same node, which also surfaces the self-edge of acquiring a second
// instance of a class while holding the first (a barrier over an array of
// locks); a barrier that locks instances in a fixed global order is
// safe and carries //vet:ignore lockorder with that justification.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag cyclic lock-acquisition order across a package (deadlock risk)",
	Run:  runLockOrder,
}

// lockOrderEdge records the first site where the acquired class was taken
// while the held class was already held.
type lockOrderEdge struct {
	pos      token.Pos
	heldName string
	acqName  string
}

func runLockOrder(pass *Pass) []Finding {
	if !strings.Contains(pass.Path, "internal/") && !strings.Contains(pass.Path, "cmd/") {
		return nil
	}
	edges := make(map[lockClass]map[lockClass]*lockOrderEdge)
	w := &lockflow{
		pass: pass,
		onAcquire: func(held []*heldLock, acq *heldLock) {
			for _, h := range held {
				m := edges[h.class]
				if m == nil {
					m = make(map[lockClass]*lockOrderEdge)
					edges[h.class] = m
				}
				if m[acq.class] == nil {
					m[acq.class] = &lockOrderEdge{pos: acq.pos, heldName: h.name, acqName: acq.name}
				}
			}
		},
	}
	w.walk()
	var reach func(from, to lockClass, seen map[lockClass]bool) bool
	reach = func(from, to lockClass, seen map[lockClass]bool) bool {
		if from == to {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		for next := range edges[from] {
			if reach(next, to, seen) {
				return true
			}
		}
		return false
	}
	var findings []Finding
	for u, m := range edges {
		for v, e := range m {
			if u == v {
				findings = append(findings, Finding{
					Analyzer: "lockorder",
					Pos:      pass.Fset.Position(e.pos),
					Message: fmt.Sprintf("%s is acquired while another lock of the same class (%s) is held; instances of one class must be locked in a fixed global order or two holders deadlock",
						e.acqName, e.heldName),
				})
				continue
			}
			if !reach(v, u, make(map[lockClass]bool)) {
				continue
			}
			msg := fmt.Sprintf("%s is acquired while %s is held, closing a lock-order cycle; goroutines taking the locks in opposite orders deadlock",
				e.acqName, e.heldName)
			if ce := edges[v][u]; ce != nil {
				cp := pass.Fset.Position(ce.pos)
				msg = fmt.Sprintf("%s is acquired while %s is held, but %s:%d acquires %s while %s is held; goroutines taking the locks in opposite orders deadlock",
					e.acqName, e.heldName, filepath.Base(cp.Filename), cp.Line, ce.acqName, ce.heldName)
			}
			findings = append(findings, Finding{
				Analyzer: "lockorder",
				Pos:      pass.Fset.Position(e.pos),
				Message:  msg,
			})
		}
	}
	return findings
}
