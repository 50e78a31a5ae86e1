package serve

import "sync"

// flightTable is the singleflight registry: at most one in-flight solve per
// key, with followers attaching to the leader's pending cell. It is
// admission synchronisation, not a cache: the draining check, the queue
// send and the accepted.Add all happen under its mutex (Server.admit), and
// Drain publishes the draining flag with a lock barrier on that mutex (see
// drainBarrier).
type flightTable struct {
	mu sync.Mutex
	m  map[string]*pending
}

// newFlightTable returns an empty singleflight table.
func newFlightTable() *flightTable {
	return &flightTable{m: make(map[string]*pending)}
}

// remove deletes key's cell; solveRound calls it only after settle filled
// the solution cache, so no moment exists where neither table covers the key.
func (t *flightTable) remove(key string) {
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
}

// drainBarrier locks and unlocks the table's mutex. Called after the
// draining flag is set: any admission already holding the mutex completes
// (its accepted.Add happens-before the barrier returns), and any later
// admission observes the flag and rejects — so once the barrier returns,
// accepted.Wait can no longer race an Add.
func (t *flightTable) drainBarrier() {
	t.mu.Lock()
	// The empty critical section is the point: entering the mutex orders
	// this goroutine after any admission that held it.
	t.mu.Unlock()
}
