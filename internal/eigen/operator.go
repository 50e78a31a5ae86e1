// Package eigen implements the symmetric eigensolvers behind the paper's
// spectral minimum-cut search (Section III-B, Theorems 1–3): an implicit-shift
// QL solver for symmetric tridiagonal matrices, a Lanczos iteration with full
// reorthogonalisation for the extreme eigenpairs of large sparse operators,
// and a dense single-eigenpair kernel (Householder tridiagonalisation, QL
// eigenvalues, inverse iteration) for small Laplacians. Fiedler chooses
// between the last two by dimension and returns the second-smallest
// eigenpair of a graph Laplacian, which is what Algorithm 2 consumes.
package eigen

import (
	"errors"

	"copmecs/internal/matrix"
	"copmecs/internal/numeric"
)

// Errors returned by the solvers.
var (
	// ErrNoConvergence is returned when an iteration exceeds its budget.
	ErrNoConvergence = errors.New("eigen: iteration did not converge")
	// ErrEmpty is returned for zero-dimensional problems.
	ErrEmpty = errors.New("eigen: empty operator")
)

// Operator is a symmetric linear operator given by its matrix-vector
// product. Implementations must be safe for repeated Apply calls; Apply
// writes A·in into out, which the caller supplies with len(out) == Dim().
//
// The indirection lets the Lanczos solver run against a plain CSR matrix, a
// deflated operator, or the distributed matvec of internal/parallel (the
// paper's Spark substitution) without caring which.
type Operator interface {
	Dim() int
	Apply(in, out matrix.Vector)
}

// CSROperator adapts a square CSR matrix to the Operator interface.
type CSROperator struct {
	M *matrix.CSR
}

var _ Operator = CSROperator{}

// Dim returns the operator dimension.
func (o CSROperator) Dim() int { return o.M.Rows() }

// Apply writes M·in into out.
func (o CSROperator) Apply(in, out matrix.Vector) {
	o.M.MulVecRange(in, out, 0, o.M.Rows())
}

// Deflated wraps an operator, projecting the given orthonormal directions
// out of both input and output: effectively A restricted to the orthogonal
// complement of span(U). Used to remove the Laplacian's constant null vector
// so that Lanczos converges to λ₂ (the Fiedler value) as the smallest
// remaining eigenvalue.
type Deflated struct {
	Op Operator
	// U holds orthonormal directions to deflate.
	U []matrix.Vector

	scratch matrix.Vector
}

var _ Operator = (*Deflated)(nil)

// NewDeflated returns a deflated operator. Each direction is normalised; a
// zero direction is ignored.
func NewDeflated(op Operator, dirs ...matrix.Vector) *Deflated {
	d := &Deflated{Op: op, scratch: make(matrix.Vector, op.Dim())}
	for _, dir := range dirs {
		u := dir.Clone()
		if numeric.Zero(u.Normalize()) {
			continue
		}
		d.U = append(d.U, u)
	}
	return d
}

// Dim returns the operator dimension.
func (d *Deflated) Dim() int { return d.Op.Dim() }

// Apply writes P·A·P·in into out where P projects out span(U).
func (d *Deflated) Apply(in, out matrix.Vector) {
	copy(d.scratch, in)
	d.project(d.scratch)
	d.Op.Apply(d.scratch, out)
	d.project(out)
}

// Project removes the deflated components from v in place.
func (d *Deflated) Project(v matrix.Vector) { d.project(v) }

func (d *Deflated) project(v matrix.Vector) {
	for _, u := range d.U {
		// Both vectors have Dim() entries, so the error path is impossible.
		if err := v.ProjectOut(u); err != nil {
			panic("eigen: deflation dimension mismatch: " + err.Error())
		}
	}
}

// Shifted wraps an operator as c·I − A. Its largest eigenvalues correspond
// to A's smallest, which lets power-style methods target the low end of the
// spectrum.
type Shifted struct {
	Op Operator
	C  float64
}

var _ Operator = Shifted{}

// Dim returns the operator dimension.
func (s Shifted) Dim() int { return s.Op.Dim() }

// Apply writes (C·I − A)·in into out.
func (s Shifted) Apply(in, out matrix.Vector) {
	s.Op.Apply(in, out)
	for i := range out {
		out[i] = s.C*in[i] - out[i]
	}
}
