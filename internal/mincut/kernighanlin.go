package mincut

import (
	"math"

	"copmecs/internal/numeric"
)

// klMaxPasses bounds the number of improvement passes; Kernighan–Lin almost
// always converges within a handful.
const klMaxPasses = 16

// KernighanLin bisects the graph into two halves of near-equal node count
// (sizes differ by at most one) while heuristically minimising the cut
// weight, as in the original 1970 procedure the paper compares against:
// starting from a deterministic split, passes repeatedly compute gains
// g = D(a) + D(b) − 2·w(a,b) for swapping the pair (a, b), tentatively swap
// the best pair, and commit the best prefix of tentative swaps if its
// cumulative gain is positive.
func KernighanLin(off, tgt []int32, wts []float64) (sideA, sideB []int32, weight float64, err error) {
	n := len(off) - 1
	switch {
	case n <= 0:
		return nil, nil, 0, ErrEmptyGraph
	case n == 1:
		return []int32{0}, nil, 0, nil
	}
	// Dense weights for O(1) pair lookups.
	w := denseWeights(off, tgt, wts)

	// Initial deterministic split: first half / second half in id order.
	inA := make([]bool, n)
	for i := 0; i < (n+1)/2; i++ {
		inA[i] = true
	}

	// D[v] = external(v) − internal(v) given the current split.
	computeD := func() []float64 {
		d := make([]float64, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if numeric.Zero(w[u][v]) {
					continue
				}
				if inA[u] != inA[v] {
					d[u] += w[u][v]
				} else {
					d[u] -= w[u][v]
				}
			}
		}
		return d
	}

	for pass := 0; pass < klMaxPasses; pass++ {
		d := computeD()
		locked := make([]bool, n)
		type swap struct {
			a, b int
			gain float64
		}
		var swaps []swap

		// Tentatively swap min(|A|,|B|) pairs.
		pairs := n / 2
		for step := 0; step < pairs; step++ {
			bestA, bestB, bestGain := -1, -1, math.Inf(-1)
			for a := 0; a < n; a++ {
				if locked[a] || !inA[a] {
					continue
				}
				for b := 0; b < n; b++ {
					if locked[b] || inA[b] {
						continue
					}
					gain := d[a] + d[b] - 2*w[a][b]
					if gain > bestGain {
						bestA, bestB, bestGain = a, b, gain
					}
				}
			}
			if bestA < 0 {
				break
			}
			locked[bestA], locked[bestB] = true, true
			swaps = append(swaps, swap{a: bestA, b: bestB, gain: bestGain})
			// Update D for unlocked nodes as if the swap was applied.
			for v := 0; v < n; v++ {
				if locked[v] {
					continue
				}
				if inA[v] {
					d[v] += 2*w[v][bestA] - 2*w[v][bestB]
				} else {
					d[v] += 2*w[v][bestB] - 2*w[v][bestA]
				}
			}
		}

		// Best prefix of cumulative gains.
		bestK, bestSum, sum := -1, 0.0, 0.0
		for k, s := range swaps {
			sum += s.gain
			if sum > bestSum+1e-12 {
				bestK, bestSum = k, sum
			}
		}
		if bestK < 0 {
			break // no improving prefix: converged
		}
		for k := 0; k <= bestK; k++ {
			inA[swaps[k].a] = false
			inA[swaps[k].b] = true
		}
	}

	sideA, sideB = split(inA)
	return sideA, sideB, cutWeight(off, tgt, wts, inA), nil
}
