package vet

import (
	"fmt"
	"go/token"
	"strings"
)

// UnlockPath flags a mutex Lock whose Unlock is neither deferred nor
// present on every path out of the function: a return (or fall-off-the-end,
// or loop iteration) that still holds the lock wedges every later caller.
// This is the serving hot path's highest-stakes invariant — an admission
// or drain path that leaks the admission mutex stalls the whole daemon, and the
// race detector cannot see it because a leaked lock is not a data race.
// One finding is reported per acquisition site, at that site, naming the
// first escaping path. Intentional cross-function handoffs (a helper that
// locks on behalf of its caller) carry //vet:ignore unlockpath with a
// justification.
var UnlockPath = &Analyzer{
	Name: "unlockpath",
	Doc:  "flag mutex Locks not released on every path out of the function",
	Run:  runUnlockPath,
}

func runUnlockPath(pass *Pass) []Finding {
	if !strings.Contains(pass.Path, "internal/") && !strings.Contains(pass.Path, "cmd/") {
		return nil
	}
	var findings []Finding
	seen := make(map[token.Pos]bool)
	report := func(lk *heldLock, msg string) {
		if seen[lk.pos] {
			return
		}
		seen[lk.pos] = true
		findings = append(findings, Finding{
			Analyzer: "unlockpath",
			Pos:      pass.Fset.Position(lk.pos),
			Message:  msg,
		})
	}
	w := &lockflow{
		pass: pass,
		onEscape: func(lk *heldLock, pos token.Pos, kind string) {
			report(lk, fmt.Sprintf("%s.%s() is still held at %s (line %d); defer the unlock or release it on every path",
				lk.name, lockVerb(lk), kind, pass.Fset.Position(pos).Line))
		},
		onDivergence: func(lk *heldLock, pos token.Pos) {
			report(lk, fmt.Sprintf("%s.%s() is released on only some branches merging at line %d; unlock it on every path or defer it",
				lk.name, lockVerb(lk), pass.Fset.Position(pos).Line))
		},
	}
	w.walk()
	return findings
}

// lockVerb names the acquisition method for messages.
func lockVerb(lk *heldLock) string {
	if lk.read {
		return "RLock"
	}
	return "Lock"
}
