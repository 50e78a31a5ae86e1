package spectral

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"copmecs/internal/eigen"
	"copmecs/internal/matrix"
)

// bisectScratch is the pooled workspace for bisectCSR: Laplacian assembly
// buffers plus sweep-cut ordering state. One instance serves one bisection at
// a time; the pool hands each concurrent cut job its own.
type bisectScratch struct {
	rowPtr []int
	colIdx []int
	vals   []float64
	order  []int
	inA    []bool
	lap    matrix.CSR // reusable Laplacian header over the buffers above
	vecBuf []float64  // backing store for the dense kernel's Fiedler vector
}

var bisectScratchPool = sync.Pool{New: func() any { return new(bisectScratch) }}

func (s *bisectScratch) ensure(n, lnnz int) {
	if cap(s.rowPtr) < n+1 {
		s.rowPtr = make([]int, n+1)
	}
	if cap(s.colIdx) < lnnz {
		s.colIdx = make([]int, lnnz)
		s.vals = make([]float64, lnnz)
	}
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.inA = make([]bool, n)
	}
}

// laplacian assembles L = D − W of the graph into s.lap, row by row:
// off-diagonals −w with the diagonal (the weighted degree, summed in
// ascending neighbor order — the same order the triplet path accumulates it
// in) inserted at its sorted column slot. It sizes every scratch buffer,
// the sweep's included.
func (s *bisectScratch) laplacian(off, tgt []int32, wts []float64) error {
	n := len(off) - 1
	lnnz := len(tgt) + n
	s.ensure(n, lnnz)
	rowPtr, colIdx, vals := s.rowPtr[:n+1], s.colIdx[:lnnz], s.vals[:lnnz]
	pos := 0
	rowPtr[0] = 0
	for i := 0; i < n; i++ {
		lo, hi := off[i], off[i+1]
		var deg float64
		for e := lo; e < hi; e++ {
			deg += wts[e]
		}
		diag := false
		for e := lo; e < hi; e++ {
			if v := int(tgt[e]); v > i && !diag {
				colIdx[pos], vals[pos] = i, deg
				pos++
				diag = true
			}
			colIdx[pos], vals[pos] = int(tgt[e]), -wts[e]
			pos++
		}
		if !diag {
			colIdx[pos], vals[pos] = i, deg
			pos++
		}
		rowPtr[i+1] = pos
	}
	if err := s.lap.ResetParts(n, n, rowPtr, colIdx[:pos], vals[:pos]); err != nil {
		return fmt.Errorf("spectral: %w", err)
	}
	return nil
}

// BisectCSRInto bisects a graph in CSR form over dense indices 0..n−1: node
// i's neighbors are tgt[off[i]:off[i+1]] (strictly ascending, no self-loops,
// symmetric) with weights wts. It returns the two sides as ascending index
// slices, both carved from the caller's sides slab (len(sides) must be ≥ n):
// sideA occupies its front, sideB the adjacent segment; sideB is empty for a
// single-node graph. The solver pipeline carves sides from a per-job arena,
// so a split allocates nothing here. The Laplacian is assembled directly
// from the arrays into pooled buffers — no triplet staging, no per-row
// sorts, no maps.
func BisectCSRInto(off, tgt []int32, wts []float64, sides []int32, opts Options) (sideA, sideB []int32, err error) {
	sideA, sideB, _, err = bisectCSR(off, tgt, wts, sides, opts)
	return sideA, sideB, err
}

// bisectCSR is BisectCSRInto also returning λ₂ (0 for a single node).
func bisectCSR(off, tgt []int32, wts []float64, sides []int32, opts Options) (sideA, sideB []int32, lambda2 float64, err error) {
	n := len(off) - 1
	switch {
	case n <= 0:
		return nil, nil, 0, ErrEmptyGraph
	case n == 1:
		sides[0] = 0
		return sides[:1:1], nil, 0, nil
	}
	s := bisectScratchPool.Get().(*bisectScratch)
	defer bisectScratchPool.Put(s)
	if err := s.laplacian(off, tgt, wts); err != nil {
		return nil, nil, 0, err
	}
	// The Fiedler vector is consumed by the sweep below and never escapes
	// this call, so the dense kernel may back it with the pooled scratch
	// buffer instead of a fresh allocation.
	eopts := opts.Eigen
	eopts.VecBuf = &s.vecBuf
	lambda2, vec, err := eigen.Fiedler(&s.lap, eopts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("spectral: %w", err)
	}

	inA := s.inA[:n]
	if opts.DisableSweep {
		signSplitCSR(vec, inA)
	} else {
		sweepCutCSR(off, tgt, wts, vec, opts.Objective, s.order[:n], inA)
	}
	// Both sides packed into the caller's slab: ascending fill, A from the
	// front, B from the adjacent segment.
	countA := 0
	for i := 0; i < n; i++ {
		if inA[i] {
			countA++
		}
	}
	sideA, sideB = sides[:0:countA], sides[countA:countA]
	for i := 0; i < n; i++ {
		if inA[i] {
			sideA = append(sideA, int32(i))
		} else {
			sideB = append(sideB, int32(i))
		}
	}
	return sideA, sideB, lambda2, nil
}

// signSplitCSR assigns side A to non-negative Fiedler entries, writing the
// side mask. If the split is degenerate (all entries one sign, possible with
// near-zero round-off), the most extreme node is peeled off so both sides
// are non-empty.
func signSplitCSR(vec matrix.Vector, inA []bool) {
	countA := 0
	for i := range vec {
		inA[i] = vec[i] >= 0
		if inA[i] {
			countA++
		}
	}
	if countA == 0 || countA == len(vec) {
		// Degenerate: separate the entry with the largest magnitude.
		extreme := 0
		for i := range vec {
			if abs(vec[i]) > abs(vec[extreme]) {
				extreme = i
			}
		}
		for i := range inA {
			inA[i] = i == extreme
		}
	}
}

// sweepCutCSR orders nodes by Fiedler value and returns, as the side mask,
// the prefix split with the smallest objective, the prefix cut maintained
// incrementally in O(E + V log V). Exact < in both directions with the index
// as tie-break makes the comparison a total order (a tolerance-based equality
// is not transitive), so the sorted permutation is unique.
func sweepCutCSR(off, tgt []int32, wts []float64, vec matrix.Vector, obj Objective, order []int, inPrefix []bool) {
	n := len(vec)
	for i := range order {
		order[i] = i
		inPrefix[i] = false
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(vec[a], vec[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	var (
		cur     float64
		best    = math.Inf(1)
		bestLen int
	)
	for k := 0; k < n-1; k++ {
		u := order[k]
		// Moving u into the prefix flips the crossing state of its edges.
		for e := off[u]; e < off[u+1]; e++ {
			if inPrefix[tgt[e]] {
				cur -= wts[e]
			} else {
				cur += wts[e]
			}
		}
		inPrefix[u] = true
		score := cur
		if obj == RatioCut {
			sizeA := float64(k + 1)
			score = cur / (sizeA * (float64(n) - sizeA))
		}
		if score < best {
			best = score
			bestLen = k + 1
		}
	}
	for i := range inPrefix {
		inPrefix[i] = false
	}
	for k := 0; k < bestLen; k++ {
		inPrefix[order[k]] = true
	}
}
