package spectral

import (
	"fmt"
	"math"
	"sync"

	"copmecs/internal/eigen"
	"copmecs/internal/matrix"
)

// bisectScratch is the pooled workspace for BisectCSR: Laplacian assembly
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

// BisectCSR is Bisect for a graph already in CSR form over dense indices
// 0..n−1: node i's neighbors are tgt[off[i]:off[i+1]] (strictly ascending,
// no self-loops, symmetric) with weights wts. It returns the two sides as
// ascending index slices; sideB is empty for a single-node graph. The
// Laplacian is assembled directly from the arrays into pooled buffers — no
// triplet staging, no per-row sorts, no maps — and the result is
// bit-for-bit identical to Bisect on the equivalent Graph (dense index i
// standing for the i-th smallest NodeID).
func BisectCSR(off, tgt []int32, wts []float64, opts Options) (sideA, sideB []int32, err error) {
	n := len(off) - 1
	if n <= 0 {
		return nil, nil, ErrEmptyGraph
	}
	return BisectCSRInto(off, tgt, wts, make([]int32, n), opts)
}

// BisectCSRInto is BisectCSR writing both side lists into the caller's
// sides slab (len(sides) must be ≥ n): sideA occupies its front, sideB the
// adjacent segment. The batch pipeline carves sides from a per-job arena,
// which removes the one allocation per split that BisectCSR itself would
// make.
func BisectCSRInto(off, tgt []int32, wts []float64, sides []int32, opts Options) (sideA, sideB []int32, err error) {
	n := len(off) - 1
	switch n {
	case 0:
		return nil, nil, ErrEmptyGraph
	case 1:
		sides[0] = 0
		return sides[:1:1], nil, nil
	}
	s := bisectScratchPool.Get().(*bisectScratch)
	defer bisectScratchPool.Put(s)
	lnnz := len(tgt) + n
	s.ensure(n, lnnz)

	// L = D − W row by row: off-diagonals −w with the diagonal (the weighted
	// degree, summed in ascending neighbor order — the same order the
	// triplet path accumulates it in) inserted at its sorted column slot.
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
		return nil, nil, fmt.Errorf("spectral: %w", err)
	}
	// The Fiedler vector is consumed by the sweep below and never escapes
	// this call, so the dense kernel may back it with the pooled scratch
	// buffer instead of a fresh allocation.
	eopts := opts.Eigen
	eopts.VecBuf = &s.vecBuf
	_, vec, err := eigen.Fiedler(&s.lap, eopts)
	if err != nil {
		return nil, nil, fmt.Errorf("spectral: %w", err)
	}
	if opts.FiedlerCapture != nil && *opts.FiedlerCapture == nil {
		*opts.FiedlerCapture = append([]float64(nil), vec...)
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
	return sideA, sideB, nil
}

// signSplitCSR mirrors signSplit on a dense vector, writing the side mask.
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

// sortByFiedler orders node indices by (Fiedler value, index). The index
// tie-break makes the comparison a total order, so the sorted permutation is
// unique and the algorithm is free to differ from the reference sweepCut's
// sort.Slice without perturbing any downstream result; sorting without
// sort.Slice saves its two per-call heap allocations on the cut hot path.
// Insertion sort below a small cutoff, iterative median-of-three quicksort
// above it.
func sortByFiedler(order []int, vec matrix.Vector) {
	less := func(a, b int) bool {
		va, vb := vec[a], vec[b]
		if va != vb { //vet:ignore floatcmp exact comparator, mirrors sweepCut
			return va < vb
		}
		return a < b
	}
	if len(order) < 24 {
		insertionByFiedler(order, less)
		return
	}
	type span struct{ lo, hi int }
	var stack [64]span
	top := 0
	stack[top] = span{0, len(order) - 1}
	top++
	for top > 0 {
		top--
		lo, hi := stack[top].lo, stack[top].hi
		for hi-lo >= 24 {
			mid := lo + (hi-lo)/2
			if less(order[mid], order[lo]) {
				order[mid], order[lo] = order[lo], order[mid]
			}
			if less(order[hi], order[lo]) {
				order[hi], order[lo] = order[lo], order[hi]
			}
			if less(order[hi], order[mid]) {
				order[hi], order[mid] = order[mid], order[hi]
			}
			pivot := order[mid]
			i, j := lo, hi
			for i <= j {
				for less(order[i], pivot) {
					i++
				}
				for less(pivot, order[j]) {
					j--
				}
				if i <= j {
					order[i], order[j] = order[j], order[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				if lo < j {
					stack[top] = span{lo, j}
					top++
				}
				lo = i
			} else {
				if i < hi {
					stack[top] = span{i, hi}
					top++
				}
				hi = j
			}
		}
		insertionByFiedler(order[lo:hi+1], less)
	}
}

func insertionByFiedler(order []int, less func(a, b int) bool) {
	for i := 1; i < len(order); i++ {
		v := order[i]
		j := i - 1
		for j >= 0 && less(v, order[j]) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
}

// sweepCutCSR mirrors sweepCut over CSR adjacency: nodes ordered by Fiedler
// value (index tie-break), prefix cut maintained incrementally, best prefix
// returned as the side mask.
func sweepCutCSR(off, tgt []int32, wts []float64, vec matrix.Vector, obj Objective, order []int, inPrefix []bool) {
	n := len(vec)
	for i := range order {
		order[i] = i
		inPrefix[i] = false
	}
	sortByFiedler(order, vec)
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
