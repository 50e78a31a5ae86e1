package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Fingerprint returns a stable hex digest of the graph's full content —
// node set, node weights, edge set and edge weights — computed over the
// canonical binary encoding (WriteBinary), whose ordering is deterministic.
// Two graphs have equal fingerprints iff Equal reports true (up to SHA-256
// collisions); the digest is therefore a content-addressed cache key that
// survives encode/decode round trips and is independent of insertion order.
func (g *Graph) Fingerprint() (string, error) {
	h := sha256.New()
	if err := g.WriteBinary(h); err != nil {
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
