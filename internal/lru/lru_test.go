package lru

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
)

// hexKey is a key shaped like the serving stack's: a hex SHA-256.
func hexKey(i int) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("key-%d", i))))
}

// TestExactLRUAtSmallCapacity drives one op script through tables of
// capacity 0–2 — the semantics serve's CacheSize 1 / GraphCacheSize 1 tests
// rely on.
func TestExactLRUAtSmallCapacity(t *testing.T) {
	type op struct {
		kind string // "put", "get", "getorput"
		key  string
		val  int
	}
	cases := []struct {
		name      string
		capacity  int
		ops       []op
		want      map[string]int // resident afterwards
		evictions uint64
		reused    uint64
	}{
		{
			name:     "capacity 1 keeps only the newest",
			capacity: 1,
			ops:      []op{{"put", "a", 1}, {"put", "b", 2}},
			want:     map[string]int{"b": 2}, evictions: 1,
		},
		{
			name:     "capacity 2 evicts the least recently used",
			capacity: 2,
			// "a" is touched by the get, so inserting "c" must evict "b".
			ops:  []op{{"put", "a", 1}, {"put", "b", 2}, {"get", "a", 0}, {"put", "c", 3}},
			want: map[string]int{"a": 1, "c": 3}, evictions: 1,
		},
		{
			name:     "Put refreshes value and recency",
			capacity: 2,
			ops:      []op{{"put", "a", 1}, {"put", "b", 2}, {"put", "a", 9}, {"put", "c", 3}},
			want:     map[string]int{"a": 9, "c": 3}, evictions: 1,
		},
		{
			name:     "GetOrPut keeps the first value and counts the reuse",
			capacity: 2,
			ops:      []op{{"getorput", "a", 1}, {"getorput", "b", 2}, {"getorput", "a", 9}, {"getorput", "c", 3}},
			want:     map[string]int{"a": 1, "c": 3}, evictions: 1, reused: 1,
		},
		{
			name:     "an evicted key installs afresh",
			capacity: 1,
			ops:      []op{{"getorput", "a", 1}, {"getorput", "b", 2}, {"getorput", "a", 7}},
			want:     map[string]int{"a": 7}, evictions: 2,
		},
		{
			name:     "capacity below 1 is clamped to 1",
			capacity: 0,
			ops:      []op{{"put", "a", 1}, {"put", "b", 2}},
			want:     map[string]int{"b": 2}, evictions: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := New[string, int](c.capacity, nil)
			for _, o := range c.ops {
				switch o.kind {
				case "put":
					tb.Put(o.key, o.val)
				case "get":
					tb.Get(o.key)
				case "getorput":
					tb.GetOrPut(o.key, o.val)
				}
			}
			got := map[string]int{}
			tb.Dump(func(k string, v int) bool { got[k] = v; return true })
			if !maps.Equal(got, c.want) {
				t.Fatalf("resident = %v, want %v", got, c.want)
			}
			if tb.Len() != len(c.want) || tb.Evictions() != c.evictions || tb.Reused() != c.reused {
				t.Fatalf("len %d evictions %d reused %d, want %d %d %d",
					tb.Len(), tb.Evictions(), tb.Reused(), len(c.want), c.evictions, c.reused)
			}
			if _, ok := tb.Get("never stored"); ok {
				t.Fatal("Get reported a hit for a key never stored")
			}
		})
	}
}

func TestGetOrPutReportsResidency(t *testing.T) {
	tb := New[string, *int](4, nil)
	one, two := new(int), new(int)
	if got, loaded := tb.GetOrPut("a", one); got != one || loaded {
		t.Fatalf("first GetOrPut = %p, %v; want the given value, false", got, loaded)
	}
	if got, loaded := tb.GetOrPut("a", two); got != one || !loaded {
		t.Fatalf("repeat GetOrPut = %p, %v; want the canonical value, true", got, loaded)
	}
}

func TestContainsDoesNotPromote(t *testing.T) {
	tb := New[string, int](2, nil)
	tb.Put("a", 1)
	tb.Put("b", 2)
	if !tb.Contains("a") || tb.Contains("z") {
		t.Fatal("Contains disagrees with residency")
	}
	tb.Put("c", 3) // "a" is still the oldest: Contains did not promote it
	if tb.Contains("a") || !tb.Contains("b") {
		t.Fatal("Contains promoted the key it looked up")
	}
}

func TestOnEvictRunsOutsideTheLock(t *testing.T) {
	type pair struct {
		k string
		v int
	}
	var evicted []pair
	var tb *Table[string, int]
	tb = New(2, func(k string, v int) {
		evicted = append(evicted, pair{k, v})
		// Re-entering the table deadlocks if its lock is still held.
		tb.Get(k)
		tb.Len()
	})
	tb.Put("a", 1)
	tb.Put("b", 2)
	tb.GetOrPut("c", 3)
	tb.Put("d", 4)
	if !slices.Equal(evicted, []pair{{"a", 1}, {"b", 2}}) {
		t.Fatalf("evicted %v, want [{a 1} {b 2}]", evicted)
	}
}

// TestExactGlobalLRUAndCapacity checks that eviction picks the least recent
// key of the whole table, whatever the key, and that the capacity is exactly
// the one asked for.
func TestExactGlobalLRUAndCapacity(t *testing.T) {
	const capacity = 64
	var evicted []string
	tb := New(capacity, func(k string, _ int) { evicted = append(evicted, k) })
	for i := 0; i < capacity; i++ {
		tb.Put(hexKey(i), i)
	}
	if tb.Len() != capacity || len(evicted) != 0 {
		t.Fatalf("after %d puts: len %d, evicted %d keys; want %d and none", capacity, tb.Len(), len(evicted), capacity)
	}
	tb.Get(hexKey(0)) // key 1 is now the least recent
	tb.Put(hexKey(capacity), capacity)
	if !slices.Equal(evicted, []string{hexKey(1)}) {
		t.Fatalf("evicted %v, want only key 1 (%s)", evicted, hexKey(1))
	}
	if _, ok := tb.Get(hexKey(0)); !ok {
		t.Fatal("the touched key 0 was evicted")
	}
	if c := New[string, int](100, nil).Capacity(); c != 100 {
		t.Fatalf("Capacity() = %d for a requested 100", c)
	}
}

func TestDumpRoundTripReproducesRecency(t *testing.T) {
	// A table with a scrambled access pattern, re-Put in Dump order into a
	// fresh table of the same capacity, must dump identically (one oldest →
	// newest order over the whole table) — the snapshot-recency contract of
	// serve.WriteSnapshotRecords.
	src := New[string, int](64, nil)
	for i := 0; i < 200; i++ {
		src.Put(hexKey(i%90), i)
		src.Get(hexKey((i * 7) % 90))
	}
	type pair struct {
		k string
		v int
	}
	dump := func(tb *Table[string, int]) []pair {
		var out []pair
		tb.Dump(func(k string, v int) bool { out = append(out, pair{k, v}); return true })
		return out
	}
	want := dump(src)
	dst := New[string, int](64, nil)
	for _, p := range want {
		dst.Put(p.k, p.v)
	}
	if got := dump(dst); !slices.Equal(got, want) {
		t.Fatalf("restored dump differs:\n got %v\nwant %v", got, want)
	}
	// The callback runs outside the lock and may stop the walk.
	visited := 0
	src.Dump(func(k string, _ int) bool {
		src.Get(k)
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("Dump visited %d entries after a false return at 3", visited)
	}
}

func TestConcurrentHammer(t *testing.T) {
	var evictions sync.Map
	tb := New(32, func(k string, _ int) { evictions.Store(k, true) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				switch i % 4 {
				case 0:
					tb.Put(k, i)
				case 1:
					tb.GetOrPut(k, i)
				case 2:
					tb.Get(k)
				default:
					tb.Dump(func(string, int) bool { return true })
					tb.Len()
					tb.Evictions()
					tb.Reused()
				}
			}
		}(w)
	}
	wg.Wait()
	if n := tb.Len(); n > tb.Capacity() {
		t.Fatalf("len = %d exceeds capacity %d", n, tb.Capacity())
	}
}
