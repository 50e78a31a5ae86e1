package serve

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sync"
)

// BodyKeyLen is the length of a BodyKey: one GCM tag.
const BodyKeyLen = 16

// BodyKey is the in-memory identity of a raw request body: equal bodies have
// equal keys, and two different bodies collide only with negligible
// probability over a BodyKeyer's secret key (DESIGN.md §10). It is not a
// content hash: another BodyKeyer keys the same body differently, so a
// BodyKey must never be persisted, logged or sent on the wire.
type BodyKey [BodyKeyLen]byte

// BodyKeyer keys raw request bodies for the serving tiers' identity tables
// (Server.bodies, router.Router.ident) with an AES-GMAC tag: AES-GCM under
// a random per-instance key and a fixed nonce, sealing no plaintext, the
// body passed as additional data. GHASH is a universal hash and the nonce's
// mask cancels in an equality test, so two distinct bodies of at most L
// 16-byte blocks collide with probability at most L/2¹²⁸ over a key that,
// like the tags, never leaves the process (DESIGN.md §10 has the argument).
// Anything persisted or compared across processes stays SHA-256.
//
// A BodyKeyer is safe for concurrent use: crypto/internal/fips140/aes/gcm's
// GCM.Seal (Go 1.24; crypto/aes's gcmAsm and crypto/cipher's gcm before)
// reads only the key schedule and GHASH product table written once at
// construction, keeping its counter and tag mask on its own stack.
type BodyKeyer struct {
	aead cipher.AEAD
	// tags recycles Seal's destination: the call through the AEAD interface
	// lets it escape, and a pooled buffer keeps the hit path from
	// allocating it per request.
	tags sync.Pool
}

// bodyKeyNonce is the fixed GCM nonce: nothing is encrypted and the tag
// authenticates nothing, so reusing it only makes the mask a per-key constant.
var bodyKeyNonce [12]byte

// NewBodyKeyer draws a random AES-128 key. It fails where the platform
// refuses GCM with a caller-chosen nonce (GODEBUG=fips140=only, Go 1.24 and
// later); the serving tiers then refuse to start rather than key bodies some
// other way.
func NewBodyKeyer() (*BodyKeyer, error) {
	var key [16]byte
	if _, err := rand.Read(key[:]); err != nil {
		return nil, fmt.Errorf("body key: %w", err)
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("body key: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("body key: %w", err)
	}
	return &BodyKeyer{aead: aead, tags: sync.Pool{New: func() any { return new([BodyKeyLen]byte) }}}, nil
}

// Key returns body's tag.
func (k *BodyKeyer) Key(body []byte) BodyKey {
	buf := k.tags.Get().(*[BodyKeyLen]byte)
	k.aead.Seal(buf[:0], bodyKeyNonce[:], nil, body)
	key := BodyKey(*buf)
	k.tags.Put(buf)
	return key
}
