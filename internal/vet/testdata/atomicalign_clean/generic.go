package thing

import "sync"

// node is a generic list node; its size depends on K and V.
type node[K comparable, V any] struct {
	next *node[K, V]
	key  K
	val  V
}

// bucket is generic sync state: it holds type-parameter-sized fields by
// value, so it has no layout before instantiation and makes no claim the
// analyzer could check.
type bucket[K comparable, V any] struct {
	mu   sync.Mutex
	head node[K, V]
	n    int64
}

// snapshot declares a local struct inside a generic method: the struct has
// no type parameters of its own, but its fields are typed by the
// receiver's.
func (b *bucket[K, V]) snapshot() int {
	type pair struct {
		key K
		val V
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []pair
	for e := b.head.next; e != nil; e = e.next {
		out = append(out, pair{key: e.key, val: e.val})
	}
	return len(out)
}
