package serve

import (
	"sync"

	"copmecs/internal/lru"
)

// flightShardCount is the fixed power-of-two shard count of the
// singleflight table. The table has no capacity to split, so it does not
// scale with configuration the way the caches do; sixteen shards keep
// leader admission and follower attachment for different keys off each
// other's mutexes at any GOMAXPROCS the repo targets.
const flightShardCount = 16

// flightTable is the sharded singleflight registry: at most one in-flight
// solve per key, with followers attaching to the leader's pending cell.
// Shards are selected by the solution cache's key hash, so the request
// path never serializes on a single global mutex. It is admission
// synchronisation, not a cache: the draining check, the write-ahead
// append, the queue send and the accepted.Add all happen under the
// key's shard mutex (Server.admit), and Drain publishes the draining
// flag with a lock-barrier over every shard (see drainBarrier).
type flightTable struct {
	shards [flightShardCount]flightShard
}

// flightShard is one singleflight shard. The padding keeps neighbouring
// shard mutexes on separate cache lines.
type flightShard struct {
	mu sync.Mutex
	m  map[string]*pending
	_  [48]byte
}

// newFlightTable returns an empty singleflight table.
func newFlightTable() *flightTable {
	t := &flightTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*pending)
	}
	return t
}

// shard returns the shard owning key.
func (t *flightTable) shard(key string) *flightShard {
	return &t.shards[lru.HashString(key)&(flightShardCount-1)]
}

// remove deletes key's cell; the caller (finish) has already filled the
// solution cache, so no moment exists where neither table covers the key.
func (t *flightTable) remove(key string) {
	sh := t.shard(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// drainBarrier locks and unlocks every shard in turn. Called after the
// draining flag is set: any admission already holding a shard mutex
// completes (its accepted.Add happens-before the barrier returns), and
// any later admission observes the flag and rejects — so once the barrier
// returns, accepted.Wait can no longer race an Add. This is the sharded
// equivalent of flipping the flag under the old global admission mutex.
func (t *flightTable) drainBarrier() {
	for i := range t.shards {
		t.shards[i].mu.Lock()
		// The empty critical section is the point: entering the mutex
		// orders this goroutine after any admission that held it.
		t.shards[i].mu.Unlock()
	}
}
