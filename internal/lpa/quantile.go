package lpa

// selectKth returns the k-th smallest element (0-based) of ws, partially
// reordering ws in place. It is the O(n) expected-time replacement for the
// sort-the-world quantile in AutoThreshold: the exact order statistic is
// preserved (quickselect returns precisely the element a full sort would
// place at index k), only the O(n log n) work is gone.
//
// The pivot is a deterministic median-of-three — no randomness, so repeated
// runs stay bitwise reproducible.
func selectKth(ws []float64, k int) float64 {
	lo, hi := 0, len(ws)-1
	for {
		if hi-lo < 12 {
			// Insertion sort on the remaining window; k is inside it.
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && ws[j] < ws[j-1]; j-- {
					ws[j], ws[j-1] = ws[j-1], ws[j]
				}
			}
			return ws[k]
		}
		// Median-of-three pivot, moved to lo.
		mid := lo + (hi-lo)/2
		if ws[mid] < ws[lo] {
			ws[mid], ws[lo] = ws[lo], ws[mid]
		}
		if ws[hi] < ws[lo] {
			ws[hi], ws[lo] = ws[lo], ws[hi]
		}
		if ws[hi] < ws[mid] {
			ws[hi], ws[mid] = ws[mid], ws[hi]
		}
		pivot := ws[mid]
		// Three-way partition (Bentley–McIlroy style, simplified): elements
		// equal to the pivot land between i and j, so heavy duplicate runs —
		// common in quantized edge weights — finish in one pass.
		i, j := lo, hi
		for i <= j {
			for ws[i] < pivot {
				i++
			}
			for ws[j] > pivot {
				j--
			}
			if i <= j {
				ws[i], ws[j] = ws[j], ws[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return ws[k]
		}
	}
}
