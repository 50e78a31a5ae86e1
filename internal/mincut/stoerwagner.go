package mincut

import (
	"math"
	"slices"
)

// GlobalMinCut computes the exact global minimum cut of the graph with the
// Stoer–Wagner algorithm in O(V³). It is used to cross-validate the
// approximate cut engines and as an optional exact engine for small
// compressed sub-graphs. A disconnected graph yields a zero-weight cut.
func GlobalMinCut(off, tgt []int32, wts []float64) (sideA, sideB []int32, weight float64, err error) {
	n := len(off) - 1
	switch {
	case n <= 0:
		return nil, nil, 0, ErrEmptyGraph
	case n == 1:
		return []int32{0}, nil, 0, nil
	}
	// Dense working copy of the weights; merged[i] tracks the original
	// nodes contracted into vertex i.
	w := denseWeights(off, tgt, wts)
	merged := make([][]int32, n)
	for i := range merged {
		merged[i] = []int32{int32(i)}
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}

	best := math.Inf(1)
	var bestSide []int32
	inA := make([]bool, n)
	weights := make([]float64, n)

	for len(active) > 1 {
		// Maximum adjacency (minimum cut phase) order.
		for _, v := range active {
			inA[v], weights[v] = false, 0
		}
		var prev, last int
		for i := 0; i < len(active); i++ {
			// Select the most tightly connected remaining vertex.
			sel, selW := -1, math.Inf(-1)
			for _, v := range active {
				if !inA[v] && weights[v] > selW {
					sel, selW = v, weights[v]
				}
			}
			inA[sel] = true
			prev, last = last, sel
			for _, v := range active {
				if !inA[v] {
					weights[v] += w[sel][v]
				}
			}
		}
		// Cut-of-the-phase: last vertex vs the rest.
		phaseCut := 0.0
		for _, v := range active {
			if v != last {
				phaseCut += w[last][v]
			}
		}
		if phaseCut < best {
			best = phaseCut
			bestSide = slices.Clone(merged[last])
		}
		// Merge last into prev.
		for _, v := range active {
			if v != last && v != prev {
				w[prev][v] += w[last][v]
				w[v][prev] = w[prev][v]
			}
		}
		merged[prev] = append(merged[prev], merged[last]...)
		for i, v := range active {
			if v == last {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}

	inBest := make([]bool, n)
	for _, u := range bestSide {
		inBest[u] = true
	}
	sideA, sideB = split(inBest)
	return sideA, sideB, best, nil
}
