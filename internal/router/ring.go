package router

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
)

// vnodes is the number of virtual nodes per backend. 128
// points per member keeps the largest/smallest ownership arc within a few
// percent of fair share for small fleets (asserted by the ring tests)
// while a full ring rebuild stays microseconds.
const vnodes = 128

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash   uint64
	member int32 // index into Ring.members
}

// Ring is an immutable consistent-hash ring over backend names. Requests
// are placed by hashing their routing key (the canonical graph
// fingerprint) onto the same 64-bit circle as the members' virtual nodes;
// the first virtual node clockwise owns the key. Immutability is the
// concurrency story: the router swaps whole rings through an atomic
// pointer on membership changes, so lookups never take a lock.
//
// The consistent-hash property is what keeps the fleet's sharded caches
// hot: a backend joining or leaving moves only the keys of the arcs it
// gains or loses (≈ 1/n of the keyspace), never reshuffling the rest —
// the minimal-movement property the ring tests assert.
type Ring struct {
	members []string
	points  []ringPoint
}

// NewRing builds a ring over the given members (deduplicated, order
// independent) with vnodes virtual nodes each. An empty member list
// yields an empty ring whose lookups report no owner.
func NewRing(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if _, ok := seen[m]; !ok {
			seen[m] = struct{}{}
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(m, v), member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by member index so the ring
		// is deterministic regardless of input order.
		return r.points[a].member < r.points[b].member
	})
	return r
}

// pointHash places one virtual node on the circle: the first 8 bytes of
// SHA-256 over "member \x00 vnode". A cryptographic hash here buys the
// uniform arc distribution the balance tests assert; it runs only at ring
// build time, never per request.
func pointHash(member string, vnode int) uint64 {
	buf := make([]byte, 0, len(member)+5)
	buf = append(buf, member...)
	buf = append(buf, 0)
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], uint32(vnode))
	buf = append(buf, v[:]...)
	sum := sha256.Sum256(buf)
	return binary.BigEndian.Uint64(sum[:8])
}

// keyHash maps a routing key onto the circle: FNV-1a over the whole key.
// Keys are hex SHA-256 fingerprints — already uniform — so a fast
// non-cryptographic mix suffices on the per-request path.
func keyHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Members returns the ring's member names, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Size reports the number of members.
func (r *Ring) Size() int { return len(r.members) }

// succ returns the index of the first point at or clockwise of hash h
// (wrapping past the top of the circle).
func (r *Ring) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the member owning key, or ok = false on an empty ring.
func (r *Ring) Owner(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.members[r.points[r.succ(keyHash(key))].member], true
}

// Replicas returns up to n distinct members in ring order starting at
// key's owner: the owner first, then each next distinct member clockwise.
// The hedger and the failover retry walk this list, so a key's traffic
// spills onto deterministic secondaries rather than random ones.
func (r *Ring) Replicas(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	taken := make(map[int32]struct{}, n)
	start := r.succ(keyHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := taken[p.member]; ok {
			continue
		}
		taken[p.member] = struct{}{}
		out = append(out, r.members[p.member])
	}
	return out
}

// Ownership reports the fraction of the hash circle each member owns
// (summing to 1 on a non-empty ring). It is a build-time diagnostic
// surfaced in /v1/stats: a skewed distribution means too few vnodes for
// the fleet size.
func (r *Ring) Ownership() map[string]float64 {
	own := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return own
	}
	const circle = float64(math.MaxUint64) + 1
	for i := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		// The arc (prev, cur] belongs to cur's member; the first point
		// also owns the wrap-around past the top of the circle.
		arc := r.points[i].hash - prev // wraps correctly in uint64 for i == 0
		own[r.members[r.points[i].member]] += float64(arc) / circle
	}
	return own
}
