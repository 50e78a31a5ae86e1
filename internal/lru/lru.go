// Package lru is the one keyed cache primitive of the serving stack: a
// fixed-capacity exact LRU under one mutex. The solution cache, the raw-body
// identity cache and the graph-intern table of internal/serve and the
// identity and mutation-affinity caches of internal/router are all instances
// of Table.
//
// Every field is read and written under the table's mutex, which is a leaf:
// caller code (the eviction hook, the Dump callback) runs after it is
// released. DESIGN.md §10 has the layout and the measurement behind one lock.
package lru

import "sync"

// Table is an exact-LRU map from K to V. Safe for concurrent use. root is
// the recency list's sentinel: root.next is the most recent entry, root.prev
// the oldest.
type Table[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	items     map[K]*entry[K, V]
	root      entry[K, V]
	evictions uint64
	reused    uint64
	onEvict   func(K, V)
}

// entry is one table slot and its own recency-list node.
type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
}

// New returns a table holding at most capacity entries (minimum 1).
// onEvict, when non-nil, receives every evicted pair after the lock is
// released.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Table[K, V] {
	capacity = max(capacity, 1)
	t := &Table[K, V]{cap: capacity, items: make(map[K]*entry[K, V], capacity), onEvict: onEvict}
	t.root.prev, t.root.next = &t.root, &t.root
	return t
}

// unlink removes e from the recency list.
func (e *entry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// promote makes e (unlinked, or new) the table's most recent entry.
func (t *Table[K, V]) promote(e *entry[K, V]) {
	e.prev, e.next = &t.root, t.root.next
	e.prev.next, e.next.prev = e, e
}

// Get returns the value stored under k, promoting it to most recent.
func (t *Table[K, V]) Get(k K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	e.unlink()
	t.promote(e)
	return e.val, true
}

// Contains reports whether k is resident, without promoting it.
func (t *Table[K, V]) Contains(k K) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.items[k]
	return ok
}

// Put stores v under k as the most recent entry, replacing any resident
// value and evicting the least recent entry at capacity.
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
	t.mu.Lock()
	if e, ok := t.items[k]; ok {
		if replace {
			e.val = v
		} else {
			v = e.val
			t.reused++
		}
		e.unlink()
		t.promote(e)
		t.mu.Unlock()
		return v, true
	}
	var (
		e       *entry[K, V]
		oldK    K
		oldV    V
		evicted bool
	)
	if len(t.items) >= t.cap {
		e = t.root.prev
		e.unlink()
		delete(t.items, e.key)
		oldK, oldV, evicted = e.key, e.val, true
		t.evictions++
	} else {
		e = new(entry[K, V])
	}
	e.key, e.val = k, v
	t.promote(e)
	t.items[k] = e
	t.mu.Unlock()
	if evicted && t.onEvict != nil {
		t.onEvict(oldK, oldV)
	}
	return v, false
}

// Dump visits every entry oldest to newest, so re-Putting the stream into a
// fresh table of the same capacity reproduces this table's recency. The
// entries are copied under the lock and fn runs outside it; fn returning
// false stops the walk.
func (t *Table[K, V]) Dump(fn func(K, V) bool) {
	t.mu.Lock()
	ents := make([]entry[K, V], 0, len(t.items))
	for e := t.root.prev; e != &t.root; e = e.prev {
		ents = append(ents, entry[K, V]{key: e.key, val: e.val})
	}
	t.mu.Unlock()
	for i := range ents {
		if !fn(ents[i].key, ents[i].val) {
			return
		}
	}
}

// Len reports the entry count.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}

// Capacity reports the configured capacity.
func (t *Table[K, V]) Capacity() int { return t.cap }

// Evictions reports the cumulative eviction count.
func (t *Table[K, V]) Evictions() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictions
}

// Reused reports how many GetOrPut calls found their key resident.
func (t *Table[K, V]) Reused() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reused
}
