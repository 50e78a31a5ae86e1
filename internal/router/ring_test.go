package router

import (
	"fmt"
	"math"
	"testing"
)

// ringKeys fabricates n fingerprint-shaped keys.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i*2654435761+17)
	}
	return keys
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	a := NewRing([]string{"a", "b", "c"})
	b := NewRing([]string{"c", "a", "b", "a"}) // shuffled + duplicate
	if a.Size() != 3 || b.Size() != 3 {
		t.Fatalf("sizes = %d, %d, want 3", a.Size(), b.Size())
	}
	for _, key := range ringKeys(500) {
		ao, aok := a.Owner(key)
		bo, bok := b.Owner(key)
		if !aok || !bok || ao != bo {
			t.Fatalf("owner(%s) = %s/%v vs %s/%v", key, ao, aok, bo, bok)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if reps := r.Replicas("k", 3); reps != nil {
		t.Fatalf("empty ring replicas = %v", reps)
	}
	if own := r.Ownership(); len(own) != 0 {
		t.Fatalf("empty ring ownership = %v", own)
	}
}

func TestRingUniformDistribution(t *testing.T) {
	// 10k uniform keys over 4 members must land within
	// a generous tolerance of fair share — the property that makes
	// fingerprint routing a load balancer and not just a cache partitioner.
	members := []string{"be-0", "be-1", "be-2", "be-3"}
	r := NewRing(members)
	counts := map[string]int{}
	keys := ringKeys(10000)
	for _, k := range keys {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatal("no owner")
		}
		counts[o]++
	}
	fair := float64(len(keys)) / float64(len(members))
	for m, c := range counts {
		if dev := math.Abs(float64(c)-fair) / fair; dev > 0.25 {
			t.Fatalf("member %s owns %d keys, fair %.0f (deviation %.0f%% > 25%%; counts %v)",
				m, c, fair, dev*100, counts)
		}
	}
	// Ownership fractions must roughly predict the observed shares.
	own := r.Ownership()
	var sum float64
	for m, frac := range own {
		sum += frac
		if frac < 0.10 || frac > 0.40 {
			t.Fatalf("ownership[%s] = %.3f, implausible for 4 members", m, frac)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ownership sums to %v, want 1", sum)
	}
}

func TestRingMinimalMovement(t *testing.T) {
	// Removing one of n members may move only the keys that member owned;
	// every key owned by a surviving member must keep its owner. This is
	// the consistent-hashing contract that keeps backend caches hot across
	// fleet membership changes.
	members := []string{"be-0", "be-1", "be-2", "be-3"}
	before := NewRing(members)
	after := NewRing(members[:3]) // be-3 leaves
	moved, total := 0, 0
	for _, k := range ringKeys(5000) {
		ob, _ := before.Owner(k)
		oa, _ := after.Owner(k)
		total++
		if ob != oa {
			moved++
			if ob != "be-3" {
				t.Fatalf("key %s moved %s → %s although %s survived", k, ob, oa, ob)
			}
		}
	}
	// The departed member owned ≈ 1/4 of the keys; movement must be in
	// that ballpark, not ≈ all keys (which a mod-n hash would produce).
	if frac := float64(moved) / float64(total); frac > 0.40 {
		t.Fatalf("%.0f%% of keys moved on one departure, want ≈ 25%%", frac*100)
	}

	// A join must likewise only pull keys onto the new member.
	joined := NewRing(append(members, "be-4"))
	for _, k := range ringKeys(5000) {
		ob, _ := before.Owner(k)
		oj, _ := joined.Owner(k)
		if ob != oj && oj != "be-4" {
			t.Fatalf("key %s moved %s → %s on join of be-4", k, ob, oj)
		}
	}
}

func TestRingReplicasDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing([]string{"a", "b", "c", "d"})
	for _, k := range ringKeys(200) {
		owner, _ := r.Owner(k)
		reps := r.Replicas(k, 3)
		if len(reps) != 3 {
			t.Fatalf("replicas(%s) = %v, want 3", k, reps)
		}
		if reps[0] != owner {
			t.Fatalf("replicas[0] = %s, owner = %s", reps[0], owner)
		}
		seen := map[string]bool{}
		for _, m := range reps {
			if seen[m] {
				t.Fatalf("duplicate replica %s in %v", m, reps)
			}
			seen[m] = true
		}
	}
	// Asking for more replicas than members returns every member.
	if reps := r.Replicas("key", 10); len(reps) != 4 {
		t.Fatalf("over-asked replicas = %v, want all 4 members", reps)
	}
}

func TestRingSingleMember(t *testing.T) {
	r := NewRing([]string{"solo"})
	o, ok := r.Owner("anything")
	if !ok || o != "solo" {
		t.Fatalf("owner = %s/%v", o, ok)
	}
	own := r.Ownership()
	if math.Abs(own["solo"]-1) > 1e-9 {
		t.Fatalf("solo ownership = %v, want 1", own["solo"])
	}
}
