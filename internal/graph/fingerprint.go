package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
)

// Fingerprint returns a stable hex digest of the graph's full content —
// node set, node weights, edge set and edge weights — computed over the
// canonical binary encoding (WriteBinary), whose ordering is deterministic.
// Two graphs have equal fingerprints iff Equal reports true (up to SHA-256
// collisions); the digest is therefore a content-addressed cache key that
// survives encode/decode round trips and is independent of insertion order.
func (g *Graph) Fingerprint() (string, error) {
	return fingerprint(g.emitBinary)
}

// Fingerprint returns the Fingerprint of the graph c is the view of, hashed
// off the view's arrays: the same records in the same order, since index
// order is NodeID order. A view built by Patch hashes what Apply and then
// Graph.Fingerprint would, without walking the map graph. A fused view of
// several graphs has no single fingerprint and returns an error.
func (c *CSR) Fingerprint() (string, error) {
	if c.multi {
		return "", errors.New("graph fingerprint: a fused view of several graphs")
	}
	return fingerprint(c.emitBinary)
}

// emitBinary streams the binary encoding of c's graph through e, each edge
// from the row of its smaller index.
func (c *CSR) emitBinary(e *binaryEmitter) error {
	e.header(c.NumNodes(), c.NumEdges())
	for i, id := range c.ids {
		e.node(id, c.nodeW[i])
	}
	for i, u := range c.ids {
		tgt, w := c.Adj(int32(i))
		for k, v := range tgt {
			if v > int32(i) {
				e.edge(u, c.ids[v], w[k])
			}
		}
	}
	return e.flush()
}

// fingerprint hashes the records emit streams.
func fingerprint(emit func(*binaryEmitter) error) (string, error) {
	h := sha256.New()
	if err := emit(&binaryEmitter{w: h}); err != nil {
		return "", fmt.Errorf("graph fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
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
