package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
)

// The fingerprint is a two-level SHA-256 (format v2). Rows — a node's
// record followed by its upper-triangle edge records, in the binary layout
// (codec.go) — are split by index into chunks of fingerprintChunk rows. A
// chunk's digest is SHA-256 over its rows' node records followed by their
// edge records; the fingerprint is SHA-256 over the v2 header
//
//	magic u32 "COPF" | version u16 | numNodes u32 | numEdges u32
//
// and every chunk's full digest, in order. Chunks are index ranges, not
// NodeID ranges: an edit re-hashes the chunk of its row, and a node insert
// or remove re-hashes every chunk from the first index it shifts. A view
// keeps its chunk digests, so a view Patch built re-hashes only the chunks
// its delta changed.
const (
	fingerprintMagic   = 0x434f5046 // "COPF"
	fingerprintVersion = 2
	fingerprintChunk   = 32
)

// numChunks is the chunk count of n rows.
func numChunks(n int) int { return (n + fingerprintChunk - 1) / fingerprintChunk }

// chunkRows is the index range [lo, hi) of chunk k of n rows.
func chunkRows(k, n int) (lo, hi int) {
	return k * fingerprintChunk, min((k+1)*fingerprintChunk, n)
}

// A root is the top-level hash's input, laid out as it is hashed: the v2
// header, then chunk k's digest at rootHeaderLen + k·sha256.Size.
const rootHeaderLen = binaryHeaderLen

// newRoot returns a zeroed root for n rows.
func newRoot(n int) []byte { return make([]byte, rootHeaderLen+sha256.Size*numChunks(n)) }

// digestSlot is the empty slice with chunk k's 32 bytes of root behind it:
// hash.Hash.Sum appends the digest there in place.
func digestSlot(root []byte, k int) []byte {
	off := rootHeaderLen + sha256.Size*k
	return root[off : off : off+sha256.Size]
}

// rootFingerprint writes the v2 header for the given counts into root and
// returns the hex SHA-256 of the whole root: the fingerprint.
func rootFingerprint(root []byte, nodes, edges int) string {
	le := binary.LittleEndian
	le.PutUint32(root[0:], fingerprintMagic)
	le.PutUint16(root[4:], fingerprintVersion)
	le.PutUint32(root[6:], uint32(nodes))
	le.PutUint32(root[10:], uint32(edges))
	sum := sha256.Sum256(root)
	return hex.EncodeToString(sum[:])
}

// chunkHasher hashes chunks one after another through one SHA-256 state and
// one record emitter. Hashers are pooled: a mutate's re-key would otherwise
// allocate more for the emitter's buffer than for the digests it keeps.
type chunkHasher struct {
	h hash.Hash
	e binaryEmitter
}

var chunkHashers = sync.Pool{New: func() any {
	ch := &chunkHasher{h: sha256.New()}
	ch.e.w = ch.h
	return ch
}}

// sum appends the digest of the records rows streams through the emitter
// to dst. A hash write never fails, so the emitter's error is never set.
func (ch *chunkHasher) sum(dst []byte, rows func(e *binaryEmitter)) {
	ch.h.Reset()
	rows(&ch.e)
	_ = ch.e.flush()
	ch.h.Sum(dst)
}

// Fingerprint returns a stable hex digest of the graph's full content —
// node set, node weights, edge set and edge weights — computed over the
// records of the canonical binary encoding (WriteBinary), whose ordering is
// deterministic. Two graphs have equal fingerprints iff Equal reports true
// (up to SHA-256 collisions); the digest is therefore a content-addressed
// cache key that survives encode/decode round trips and is independent of
// insertion order.
func (g *Graph) Fingerprint() (string, error) {
	ids := g.sortedNodes()
	root := newRoot(len(ids))
	ch := chunkHashers.Get().(*chunkHasher)
	defer chunkHashers.Put(ch)
	for k := range numChunks(len(ids)) {
		lo, hi := chunkRows(k, len(ids))
		ch.sum(digestSlot(root, k), func(e *binaryEmitter) {
			for _, id := range ids[lo:hi] {
				e.node(id, g.rec(id).weight)
			}
			for _, u := range ids[lo:hi] {
				rec := g.rec(u)
				for i, v := range rec.nbr {
					if u < v {
						e.edge(u, v, rec.w[i])
					}
				}
			}
		})
	}
	return rootFingerprint(root, len(ids), g.NumEdges()), nil
}

// fingerprintState is a view's published fingerprint and the root it was
// hashed from, which holds the chunk digests.
type fingerprintState struct {
	root []byte
	fp   string
}

// viewFingerprint is a CSR's fingerprint, computed on first use. Patch
// seeds a patched view with a root holding its source's digests (seed) and
// marks the chunks its delta changed (stale); the first Fingerprint
// re-hashes only those, then publishes the state, which a later Patch reads.
type viewFingerprint struct {
	once  sync.Once
	state atomic.Pointer[fingerprintState]
	seed  []byte // nil: hash every chunk
	stale []bool
}

// Fingerprint returns the Fingerprint of the graph c is the view of, hashed
// off the view's arrays: the same records in the same order, since index
// order is NodeID order. It is computed once; a view built by Patch from a
// fingerprinted view re-hashes only the chunks its delta changed. A fused
// view of several graphs has no single fingerprint and returns an error.
func (c *CSR) Fingerprint() (string, error) {
	if c.multi {
		return "", errors.New("graph fingerprint: a fused view of several graphs")
	}
	f := &c.fp
	f.once.Do(func() {
		f.state.Store(c.hashChunks(f.seed, f.stale))
		f.seed, f.stale = nil, nil
	})
	return f.state.Load().fp, nil
}

// hashChunks returns c's fingerprint state from seed's digests, re-hashing
// the chunks stale marks — every chunk when seed is nil.
func (c *CSR) hashChunks(seed []byte, stale []bool) *fingerprintState {
	n := len(c.ids)
	root := seed
	if root == nil {
		root = newRoot(n)
	}
	ch := chunkHashers.Get().(*chunkHasher)
	defer chunkHashers.Put(ch)
	for k := range numChunks(n) {
		if seed != nil && !stale[k] {
			continue
		}
		lo, hi := chunkRows(k, n)
		ch.sum(digestSlot(root, k), func(e *binaryEmitter) { c.emitRows(e, lo, hi) })
	}
	return &fingerprintState{root: root, fp: rootFingerprint(root, n, c.NumEdges())}
}

// emitRows streams rows [lo, hi) of c through e: their node records, then
// their upper-triangle edge records.
func (c *CSR) emitRows(e *binaryEmitter, lo, hi int) {
	for i := lo; i < hi; i++ {
		e.node(c.ids[i], c.nodeW[i])
	}
	for i := lo; i < hi; i++ {
		tgt, w := c.Adj(int32(i))
		for k, v := range tgt {
			if v > int32(i) {
				e.edge(c.ids[i], c.ids[v], w[k])
			}
		}
	}
}

// seedFingerprint gives p, the view c.Patch is building, a copy of c's
// chunk digests when c has been fingerprinted, and reports whether it did;
// Patch then marks the chunks its delta changed (markStale). It hashes
// nothing and keeps no pointer to c.
func (p *CSR) seedFingerprint(c *CSR) bool {
	prev := c.fp.state.Load()
	if prev == nil {
		return false
	}
	p.fp.seed = newRoot(len(p.ids))
	copy(p.fp.seed[rootHeaderLen:], prev.root[rootHeaderLen:])
	p.fp.stale = make([]bool, numChunks(len(p.ids)))
	return true
}

// markStale marks the chunk holding row j for re-hashing.
func (p *CSR) markStale(j int32) { p.fp.stale[j/fingerprintChunk] = true }

// markStaleFrom marks every chunk from the one index j falls in: the rows a
// node insert or remove shifted, and a last chunk that lost its tail.
func (p *CSR) markStaleFrom(j int) {
	for k := j / fingerprintChunk; k < len(p.fp.stale); k++ {
		p.fp.stale[k] = true
	}
}

// FingerprintBinary returns the Fingerprint of the graph whose binary
// encoding (WriteBinary's bytes, as AppendBinary lays them) is enc, hashing
// the records where they lie: a chunk is its run of node records and the
// run of edge records whose smaller endpoint is among them. It checks the
// header and the length, not the records.
func FingerprintBinary(enc []byte) (string, error) {
	n, m, err := BinaryCounts(enc)
	if err != nil {
		return "", fmt.Errorf("graph fingerprint: %w", err)
	}
	le := binary.LittleEndian
	nodes := enc[binaryHeaderLen : binaryHeaderLen+binaryNodeLen*n]
	edges := enc[binaryHeaderLen+binaryNodeLen*n:]
	root := newRoot(n)
	ch := chunkHashers.Get().(*chunkHasher)
	defer chunkHashers.Put(ch)
	h := ch.h
	at := 0 // the next edge record's byte offset
	for k := range numChunks(n) {
		lo, hi := chunkRows(k, n)
		last := int64(le.Uint64(nodes[binaryNodeLen*(hi-1):]))
		from := at
		for at < len(edges) && int64(le.Uint64(edges[at:])) <= last {
			at += binaryEdgeLen
		}
		h.Reset()
		_, _ = h.Write(nodes[binaryNodeLen*lo : binaryNodeLen*hi])
		_, _ = h.Write(edges[from:at])
		h.Sum(digestSlot(root, k))
	}
	return rootFingerprint(root, n, m), nil
}

// FingerprintLen is the length of a Fingerprint: a hex-encoded SHA-256.
const FingerprintLen = 2 * sha256.Size

// ValidFingerprint reports whether s has the syntax of a Fingerprint —
// FingerprintLen lowercase hex characters — the one definition the serving
// tiers check client-supplied graph handles against.
func ValidFingerprint(s string) bool {
	if len(s) != FingerprintLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
