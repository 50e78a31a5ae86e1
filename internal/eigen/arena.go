package eigen

import "sync"

// floatArena is a pooled bump allocator for the eigensolvers' internal
// vectors and workspaces: the Lanczos basis (O(maxIter) n-vectors) and Ritz
// workspace, and the dense kernel's n×n working matrix plus a handful of
// n-vectors. Routing them through an arena makes a steady-state Fiedler
// call touch the heap only for the eigenvector it returns (which must
// escape and is therefore allocated normally — arena memory never leaves
// the solver).
//
// Arenas are pooled per size class. A single shared pool would let one large
// solve park a multi-megabyte chunk that every subsequent small solve then
// pins for its lifetime (the classic sync.Pool poisoning pattern); classing
// by the solve's float demand keeps a daemon's many small solves on small
// arenas while the rare huge instance recycles through its own class.
type floatArena struct {
	chunks [][]float64
	ci     int // chunk currently bump-allocated from
	off    int // next free slot in chunks[ci]
	class  int // pool class this arena returns to
}

// arenaClassCap[k] is the largest take-hint class k serves; retained chunk
// capacity is trimmed to the class cap on release so an arena that grew past
// its class (estimates are hints, not bounds) cannot poison the class pool.
var arenaClassCap = [...]int{1 << 13, 1 << 16, 1 << 19, 1 << 22}

// arenaPools holds one pool per size class plus a final unbounded class for
// anything larger than the last cap.
var arenaPools [len(arenaClassCap) + 1]sync.Pool

func arenaClassFor(hint int) int {
	for k, c := range arenaClassCap {
		if hint <= c {
			return k
		}
	}
	return len(arenaClassCap)
}

// getArena checks an arena out of the pool serving solves that need about
// `hint` float64s in total. The hint sizes nothing up front — take still
// grows on demand — it only picks which class pool the arena cycles through.
func getArena(hint int) *floatArena {
	class := arenaClassFor(hint)
	a, _ := arenaPools[class].Get().(*floatArena)
	if a == nil {
		a = &floatArena{class: class}
	}
	return a
}

func putArena(a *floatArena) {
	a.reset()
	// Trim retained capacity to the class cap: an arena that outgrew its
	// class frees the excess here instead of pinning it in the pool. Oldest
	// chunks go first — a later chunk exists because a request did not fit
	// the earlier ones, so it is the one the next solve of this class can
	// use.
	if a.class < len(arenaClassCap) {
		total := 0
		for _, c := range a.chunks {
			total += len(c)
		}
		drop := 0
		for ; total > arenaClassCap[a.class]; drop++ {
			total -= len(a.chunks[drop])
			a.chunks[drop] = nil
		}
		a.chunks = a.chunks[:copy(a.chunks, a.chunks[drop:])]
	}
	arenaPools[a.class].Put(a)
}

func (a *floatArena) reset() { a.ci, a.off = 0, 0 }

// takeDirty returns an n-element slice carved from the arena, valid until
// the arena is reset or returned to the pool. It is not zeroed — recycled
// chunks hold stale values — so the caller writes every element before
// reading it.
func (a *floatArena) takeDirty(n int) []float64 {
	for a.ci < len(a.chunks) && len(a.chunks[a.ci])-a.off < n {
		a.ci++
		a.off = 0
	}
	if a.ci == len(a.chunks) {
		size := 4096
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]float64, size))
	}
	s := a.chunks[a.ci][a.off : a.off+n : a.off+n]
	a.off += n
	return s
}
