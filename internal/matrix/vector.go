// Package matrix provides the linear algebra the spectral offloading
// pipeline needs: vectors, CSR sparse matrices and graph Laplacians. Only
// float64 is supported; everything is stdlib-only.
//
// The package exists because the paper's minimum-cut search (Section III-B)
// reduces to eigencomputation on the Laplace matrix of each compressed
// sub-graph.
package matrix

import (
	"errors"
	"fmt"
	"math"

	"copmecs/internal/numeric"
)

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("matrix: dimension mismatch")

// Vector is a dense column vector.
type Vector []float64

// Dot returns ⟨v, w⟩.
func (v Vector) Dot(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("dot %d×%d: %w", len(v), len(w), ErrDimension)
	}
	var sum float64
	for i, x := range v {
		sum += x * w[i]
	}
	return sum, nil
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v Vector) Norm() float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Scale multiplies v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Axpy adds a·x to v in place (v ← v + a·x).
func (v Vector) Axpy(a float64, x Vector) error {
	if len(v) != len(x) {
		return fmt.Errorf("axpy %d×%d: %w", len(v), len(x), ErrDimension)
	}
	for i := range v {
		v[i] += a * x[i]
	}
	return nil
}

// Normalize scales v to unit norm in place and returns the original norm.
// A vector whose norm is zero within numeric.Eps is numerically
// directionless — scaling it by 1/n would only amplify round-off — so it
// is left untouched and reported as norm 0.
func (v Vector) Normalize() float64 {
	n := v.Norm()
	if numeric.Zero(n) {
		return 0
	}
	v.Scale(1 / n)
	return n
}

// ProjectOut removes from v its component along the unit vector u in place:
// v ← v − ⟨v,u⟩·u. u must have unit norm for the projection to be exact.
func (v Vector) ProjectOut(u Vector) error {
	d, err := v.Dot(u)
	if err != nil {
		return err
	}
	return v.Axpy(-d, u)
}

// MaxAbs returns the largest absolute entry of v (0 for empty).
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
