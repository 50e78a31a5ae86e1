// Package lru is the one keyed cache primitive of the serving stack: a
// fixed-capacity table sharded by a caller-supplied hash, each shard an
// exact LRU under its own mutex. The solution cache, the raw-body identity
// cache and the graph-intern table of internal/serve and the identity and
// mutation-affinity caches of internal/router are all instances of Table.
//
// Shard counts are powers of two that scale down with capacity, so a
// table of capacity 1 or 2 is one shard and an exact LRU over the whole
// key space. Every shard field is read and written under that shard's
// mutex; shard mutexes are leaves, never held together, and caller code
// (the eviction hook, the Dump callback) runs after the lock is released.
// DESIGN.md §10 has the layout and the memory-ordering notes.
package lru

import "sync"

const (
	// maxShards caps the shard count of any table.
	maxShards = 16
	// minShardEntries is the smallest per-shard capacity worth splitting
	// for; below it, fewer shards with exact LRU behaviour win.
	minShardEntries = 8
)

// shardCountFor returns the power-of-two shard count for a table of the
// given total capacity: the largest power of two ≤ maxShards that still
// leaves every shard at least minShardEntries entries, and at least one.
func shardCountFor(capacity int) int {
	n := 1
	for n*2 <= maxShards && capacity/(n*2) >= minShardEntries {
		n *= 2
	}
	return n
}

// HashString hashes the leading bytes of a string key (FNV-1a over at most
// the first 16 bytes). The serving stack's string keys are hex SHA-256
// digests, so their prefix alone is uniformly distributed; hashing —
// rather than using raw nibbles — keeps the function total over arbitrary
// short keys. It is also the shard function of serve's singleflight table.
func HashString(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key) && i < 16; i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h
}

// HashDigest is the hash for SHA-256 digest keys: the digest is uniformly
// distributed, so its leading bytes are an unbiased shard index.
func HashDigest(d [32]byte) uint32 {
	return uint32(d[0]) | uint32(d[1])<<8
}

// Occupancy is one shard's fill level, in the wire form /v1/stats reports.
type Occupancy struct {
	// Size is the shard's current entry count.
	Size int `json:"size"`
	// Capacity is the shard's configured maximum entry count.
	Capacity int `json:"capacity"`
}

// Table is a sharded exact-LRU map from K to V. Safe for concurrent use.
type Table[K comparable, V any] struct {
	shards  []*shard[K, V]
	mask    uint32
	hash    func(K) uint32
	onEvict func(K, V)
}

// shard is one independently locked exact LRU. root is the recency list's
// sentinel: root.next is the most recent entry, root.prev the oldest.
type shard[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	items     map[K]*entry[K, V]
	root      entry[K, V]
	evictions uint64
	reused    uint64
}

// entry is one table slot and its own recency-list node.
type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
}

// New returns a table holding at most capacity entries (minimum 1), its
// shards picked by hash. onEvict, when non-nil, receives every evicted
// pair after the shard lock is released.
func New[K comparable, V any](capacity int, hash func(K) uint32, onEvict func(K, V)) *Table[K, V] {
	capacity = max(capacity, 1)
	n := shardCountFor(capacity)
	per := (capacity + n - 1) / n
	t := &Table[K, V]{
		shards:  make([]*shard[K, V], n),
		mask:    uint32(n - 1),
		hash:    hash,
		onEvict: onEvict,
	}
	for i := range t.shards {
		sh := &shard[K, V]{cap: per, items: make(map[K]*entry[K, V], per)}
		sh.root.prev, sh.root.next = &sh.root, &sh.root
		t.shards[i] = sh
	}
	return t
}

// unlink removes e from the recency list.
func (e *entry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// promote makes e (unlinked, or new) the shard's most recent entry.
func (sh *shard[K, V]) promote(e *entry[K, V]) {
	e.prev, e.next = &sh.root, sh.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns the value stored under k, promoting it to most recent.
func (t *Table[K, V]) Get(k K) (V, bool) {
	sh := t.shards[t.hash(k)&t.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	e.unlink()
	sh.promote(e)
	return e.val, true
}

// Put stores v under k as the most recent entry, replacing any resident
// value and evicting the shard's least recent entry at capacity.
func (t *Table[K, V]) Put(k K, v V) {
	t.put(k, v, true)
}

// GetOrPut returns the value resident under k (promoting it, counting a
// reuse, and reporting true), or installs v as that value and returns it
// with false: the first value stored under a key stays canonical until it
// is evicted.
func (t *Table[K, V]) GetOrPut(k K, v V) (V, bool) {
	return t.put(k, v, false)
}

// put is Put (replace) and GetOrPut (keep the resident value).
func (t *Table[K, V]) put(k K, v V, replace bool) (V, bool) {
	sh := t.shards[t.hash(k)&t.mask]
	sh.mu.Lock()
	if e, ok := sh.items[k]; ok {
		if replace {
			e.val = v
		} else {
			v = e.val
			sh.reused++
		}
		e.unlink()
		sh.promote(e)
		sh.mu.Unlock()
		return v, true
	}
	var (
		e       *entry[K, V]
		oldK    K
		oldV    V
		evicted bool
	)
	if len(sh.items) >= sh.cap {
		e = sh.root.prev
		e.unlink()
		delete(sh.items, e.key)
		oldK, oldV, evicted = e.key, e.val, true
		sh.evictions++
	} else {
		e = new(entry[K, V])
	}
	e.key, e.val = k, v
	sh.promote(e)
	sh.items[k] = e
	sh.mu.Unlock()
	if evicted && t.onEvict != nil {
		t.onEvict(oldK, oldV)
	}
	return v, false
}

// Dump visits every entry shard by shard, oldest to newest within each
// shard, so re-Putting the stream into a fresh table of the same capacity
// reproduces this table's recency. Each shard's entries are copied under
// its lock and fn runs outside it; fn returning false stops the walk.
func (t *Table[K, V]) Dump(fn func(K, V) bool) {
	for _, sh := range t.shards {
		sh.mu.Lock()
		ents := make([]entry[K, V], 0, len(sh.items))
		for e := sh.root.prev; e != &sh.root; e = e.prev {
			ents = append(ents, entry[K, V]{key: e.key, val: e.val})
		}
		sh.mu.Unlock()
		for i := range ents {
			if !fn(ents[i].key, ents[i].val) {
				return
			}
		}
	}
}

// Occupancy reports every shard's size and capacity (skewed shards
// indicate a pathological key distribution).
func (t *Table[K, V]) Occupancy() []Occupancy {
	occ := make([]Occupancy, len(t.shards))
	for i, sh := range t.shards {
		sh.mu.Lock()
		occ[i] = Occupancy{Size: len(sh.items), Capacity: sh.cap}
		sh.mu.Unlock()
	}
	return occ
}

// Len reports the entry count across shards.
func (t *Table[K, V]) Len() int {
	n := 0
	for _, o := range t.Occupancy() {
		n += o.Size
	}
	return n
}

// Capacity reports the configured capacity across shards (the requested
// capacity rounded up to a multiple of the shard count).
func (t *Table[K, V]) Capacity() int {
	return len(t.shards) * t.shards[0].cap
}

// Evictions reports the cumulative eviction count across shards.
func (t *Table[K, V]) Evictions() uint64 {
	return t.sum(func(sh *shard[K, V]) uint64 { return sh.evictions })
}

// Reused reports how many GetOrPut calls found their key resident.
func (t *Table[K, V]) Reused() uint64 {
	return t.sum(func(sh *shard[K, V]) uint64 { return sh.reused })
}

// sum adds up one per-shard counter, each read under its shard's lock.
func (t *Table[K, V]) sum(counter func(*shard[K, V]) uint64) uint64 {
	var n uint64
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += counter(sh)
		sh.mu.Unlock()
	}
	return n
}
