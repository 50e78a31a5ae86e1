// Package eigen computes the one eigenpair behind the paper's spectral
// minimum-cut search (Section III-B, Theorems 1–3): the Fiedler pair of a
// graph Laplacian, which is what Algorithm 2 consumes. Both solvers reduce
// the problem to a symmetric tridiagonal T and take T's smallest eigenpair
// by Sturm bisection and inverse iteration: a dense kernel (Householder
// tridiagonalisation) for Laplacians of up to a few hundred nodes, and a
// Lanczos iteration with full reorthogonalisation above that. Fiedler
// chooses between them by dimension.
package eigen

import (
	"errors"
	"fmt"
	"math"

	"copmecs/internal/matrix"
)

// Errors returned by the solvers.
var (
	// ErrNoConvergence is returned when an iteration exceeds its budget.
	ErrNoConvergence = errors.New("eigen: iteration did not converge")
	// ErrEmpty is returned for zero-dimensional problems.
	ErrEmpty = errors.New("eigen: empty operator")
)

// FiedlerOptions tunes Fiedler-pair computation. The zero value is valid.
type FiedlerOptions struct {
	// DenseCutoff is the dimension at or below which the dense kernel
	// (Householder + Sturm bisection + inverse iteration) is used instead
	// of Lanczos; 0 means 384. On the sparse Laplacians compressed
	// sub-graphs produce the two cross near 330
	// (BenchmarkDenseLanczosCrossover); DESIGN §9 says why the default
	// has not moved there.
	DenseCutoff int
	// IterOut, when non-nil, is incremented by the number of Lanczos
	// iterations performed (the dimension of its tridiagonal T), letting
	// callers account for the work a skipped solve saves. The dense kernel
	// adds nothing.
	IterOut *int
	// Flat is accepted and ignored — both values select the one dense
	// kernel; delete together with its last reader in a benchmark-only PR.
	Flat bool
	// VecBuf, when non-nil, lets the dense kernel back the returned
	// eigenvector with this grow-only buffer instead of a fresh
	// allocation. The caller owns the buffer: the returned vector aliases
	// it and is valid only until the next solve that passes the same
	// buffer. Ignored by the Lanczos path.
	VecBuf *[]float64
}

// Fiedler returns the second-smallest eigenvalue λ₂ of the Laplacian l and
// its eigenvector (the Fiedler vector), the quantities Theorem 1 of the
// paper uses to locate the minimum cut of a compressed sub-graph. The
// Laplacian's smallest eigenvalue is 0 with the constant eigenvector, which
// is deflated away; the returned vector is unit-norm, orthogonal to 1, and
// canonically oriented (see orient) so that the dense kernel and Lanczos name
// the two sides of the cut alike. l must be symmetric: the dense kernel reads
// only its lower triangle.
//
// A one-node graph has no second eigenpair; it yields ErrEmpty.
func Fiedler(l *matrix.CSR, opts FiedlerOptions) (float64, matrix.Vector, error) {
	n := l.Rows()
	if n != l.Cols() {
		return 0, nil, fmt.Errorf("fiedler %dx%d: %w", l.Rows(), l.Cols(), matrix.ErrDimension)
	}
	if n < 2 {
		return 0, nil, fmt.Errorf("fiedler on %d-node laplacian: %w", n, ErrEmpty)
	}
	cutoff := opts.DenseCutoff
	if cutoff <= 0 {
		cutoff = 384
	}
	var (
		lambda float64
		vec    matrix.Vector
		err    error
	)
	if n <= cutoff {
		lambda, vec, err = fiedlerDense(l, opts.VecBuf)
	} else {
		lambda, vec, err = lanczosFiedler(l, opts.IterOut)
	}
	if err != nil {
		return 0, nil, err
	}
	orient(vec)
	return lambda, vec, nil
}

// orient flips v in place so that its largest-magnitude entry — the lowest
// index among exact ties — is positive. An eigenvector's sign is an accident
// of the solver (reflector signs, the Lanczos start vector), and the sign
// decides which side of the cut is called A and every tie-break after it.
func orient(v matrix.Vector) {
	big := 0
	for i, x := range v {
		if math.Abs(x) > math.Abs(v[big]) {
			big = i
		}
	}
	if v[big] < 0 {
		v.Scale(-1)
	}
}

// deflate removes v's component along the constant vector: v ← v − mean(v).
func deflate(v matrix.Vector) {
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	for i := range v {
		v[i] -= mean
	}
}

// unitScale returns the power of two that brings l's largest absolute entry
// into [½, 1), or 1 for an all-zero l. Scaling by it is exact, and it makes
// every absolute threshold a solver holds (breakdown test, residual
// tolerance, pivot floor) and every square it forms relative to ‖l‖,
// whatever the weights' magnitude.
func unitScale(l *matrix.CSR) float64 {
	amax := l.MaxAbs()
	if amax <= 0 {
		return 1
	}
	_, exp := math.Frexp(amax)
	if exp < -1022 {
		exp = -1022 // keep 2^−exp finite for all-subnormal weights
	}
	return math.Ldexp(1, -exp)
}
