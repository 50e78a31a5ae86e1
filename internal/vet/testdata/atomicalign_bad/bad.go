// Package thing is an atomicalign fixture: cache-line pads that do not
// tile 64 bytes.
package thing

import (
	"sync"
	"sync/atomic"
)

// shortPad claims cache-line padding but the struct stops at 48 bytes.
type shortPad struct { // flagged: 48 bytes total
	mu sync.Mutex
	_  [40]byte // flagged: pad ends at 48
}

// midPad tiles two lines overall, but the first pad breaks the grid.
type midPad struct {
	head atomic.Uint64
	_    [48]byte // flagged: pad ends at 56, head's line leaks into tail's
	tail atomic.Uint64
	_    [64]byte
}
