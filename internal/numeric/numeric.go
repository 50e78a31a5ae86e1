// Package numeric holds the shared floating-point tolerance helpers the
// numeric packages (eigen, matrix, spectral, core, mincut) use instead of
// raw == / != comparisons. The spectral min-cut (Theorems 1–3) and the
// greedy allocation (Algorithm 2) both hinge on comparisons of quantities
// accumulated through long floating-point reductions; exact equality on
// such values is a latent bug, and the copmecs-vet floatcmp analyzer
// rejects it. Route comparisons through this package so the tolerance is
// defined once.
package numeric

import "math"

// Eps is the default absolute/relative tolerance. It matches the 1e-12
// slack the greedy allocator has always used for objective deltas: coarse
// enough to absorb round-off from summing thousands of terms, fine enough
// to never mask a real improvement at the weight scales netgen produces.
const Eps = 1e-12

// Zero reports whether x is zero within Eps. Use it for "did this vector
// collapse" and "is this capacity exhausted" style guards where exact
// zero tests would be fooled by round-off.
func Zero(x float64) bool {
	return math.Abs(x) <= Eps
}

// Eq reports whether a and b are equal within a mixed absolute/relative
// tolerance: |a−b| ≤ Eps·max(1, |a|, |b|). The absolute floor keeps
// near-zero comparisons sane; the relative term scales with large
// objective values.
func Eq(a, b float64) bool {
	return math.Abs(a-b) <= Eps*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
