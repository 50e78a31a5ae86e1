package eigen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"copmecs/internal/matrix"
)

// ErrNotSymmetric is returned when the oracle's input is not symmetric.
var ErrNotSymmetric = errors.New("eigen: matrix is not symmetric")

// jacobiMaxSweeps bounds the cyclic Jacobi iteration; 50 sweeps is far more
// than any symmetric matrix needs (convergence is quadratic).
const jacobiMaxSweeps = 50

// Jacobi is the test-side oracle for both Fiedler solvers: the full
// eigendecomposition of a symmetric dense matrix by cyclic Jacobi rotations,
// sharing no code with the tridiagonal / bisection / inverse-iteration path
// it checks.
// It returns the eigenvalues in ascending order and the corresponding
// eigenvectors as the columns of the returned matrix. The input is not
// modified. Exact and robust, but O(n³) per sweep for all n vectors.
func Jacobi(a *Dense, symTol float64) ([]float64, *Dense, error) {
	n := a.Rows()
	if n == 0 {
		return nil, nil, ErrEmpty
	}
	if !a.IsSymmetric(symTol) {
		return nil, nil, fmt.Errorf("jacobi %dx%d: %w", a.Rows(), a.Cols(), ErrNotSymmetric)
	}
	m := a.Clone()
	v := Identity(n)

	off := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += m.At(i, j) * m.At(i, j)
			}
		}
		return s
	}

	// Scale the convergence threshold with the matrix magnitude.
	var frob float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			frob += m.At(i, j) * m.At(i, j)
		}
	}
	eps := 1e-22 * (frob + 1)

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		if off() <= eps {
			return sortedEigen(m, v)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if apq == 0 { //vet:ignore floatcmp exact-zero rotation skip; a tolerance here could leave off() stuck above the 1e-22-scale convergence threshold
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				// Stable computation of the rotation (Golub & Van Loan §8.5).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				rotate(m, p, q, c, s)
				rotateCols(v, p, q, c, s)
			}
		}
	}
	if off() <= eps*10 { // accept near-converged state
		return sortedEigen(m, v)
	}
	return nil, nil, fmt.Errorf("jacobi after %d sweeps: %w", jacobiMaxSweeps, ErrNoConvergence)
}

// rotate applies the two-sided Jacobi rotation J(p,q,θ)ᵀ·M·J(p,q,θ) in place.
func rotate(m *Dense, p, q int, c, s float64) {
	n := m.Rows()
	for k := 0; k < n; k++ {
		mkp, mkq := m.At(k, p), m.At(k, q)
		m.Set(k, p, c*mkp-s*mkq)
		m.Set(k, q, s*mkp+c*mkq)
	}
	for k := 0; k < n; k++ {
		mpk, mqk := m.At(p, k), m.At(q, k)
		m.Set(p, k, c*mpk-s*mqk)
		m.Set(q, k, s*mpk+c*mqk)
	}
}

// rotateCols applies the rotation to the eigenvector accumulator columns.
func rotateCols(v *Dense, p, q int, c, s float64) {
	n := v.Rows()
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

// sortedEigen extracts the diagonal of m as eigenvalues and reorders the
// columns of v accordingly, ascending.
func sortedEigen(m, v *Dense) ([]float64, *Dense, error) {
	n := m.Rows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return m.At(idx[a], idx[a]) < m.At(idx[b], idx[b]) })

	vals := make([]float64, n)
	vecs := NewDense(n, n)
	for col, src := range idx {
		vals[col] = m.At(src, src)
		for row := 0; row < n; row++ {
			vecs.Set(row, col, v.At(row, src))
		}
	}
	return vals, vecs, nil
}

// Dense is the oracle's row-major dense matrix. Production never forms one:
// the dense kernel scatters a CSR Laplacian into arena scratch itself.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero r×c matrix.
func NewDense(r, c int) *Dense {
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// DenseFromRows builds a matrix from row slices of equal length; the data
// is copied.
func DenseFromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("row %d has %d cols, want %d: %w", i, len(row), c, matrix.ErrDimension)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// denseOf expands the CSR matrix l.
func denseOf(l *matrix.CSR) *Dense {
	m := NewDense(l.Rows(), l.Cols())
	if _, err := l.DenseInto(m.data); err != nil {
		panic(err) // the buffer is sized from l itself
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns m[i, j].
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns m[i, j] = v.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Col returns a copy of column j.
func (m *Dense) Col(j int) matrix.Vector {
	out := make(matrix.Vector, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// MulVec returns m·v.
func (m *Dense) MulVec(v matrix.Vector) (matrix.Vector, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("mulvec %dx%d by %d: %w", m.rows, m.cols, len(v), matrix.ErrDimension)
	}
	out := make(matrix.Vector, m.rows)
	for i := range out {
		var sum float64
		for j, x := range m.data[i*m.cols : (i+1)*m.cols] {
			sum += x * v[j]
		}
		out[i] = sum
	}
	return out, nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}
