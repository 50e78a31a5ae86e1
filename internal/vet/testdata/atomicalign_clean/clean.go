// Package thing is the atomicalign negative fixture: pads that tile
// exactly, and non-concurrent pads.
package thing

import (
	"sync"
	"sync/atomic"
)

// padded tiles exactly one cache line.
type padded struct {
	n atomic.Uint64
	_ [56]byte
}

// shardLine tiles two cache lines, the mutex isolated on the first.
type shardLine struct {
	mu   sync.Mutex
	_    [56]byte
	hits atomic.Uint64
	_    [56]byte
}

// ioBuf pads for serialization alignment, not concurrency: it has no
// sync state, so it makes no cache-line claim.
type ioBuf struct {
	buf [10]byte
	_   [6]byte
}
