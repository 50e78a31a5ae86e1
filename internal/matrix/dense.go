package matrix

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		r, c = 0, 0
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// DenseFromRows builds a matrix from row slices; all rows must have equal
// length. The data is copied.
func DenseFromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return NewDense(0, 0), nil
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("row %d has %d cols, want %d: %w", i, len(row), c, ErrDimension)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
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

// At returns m[i, j]. Indices are not bounds-checked beyond the slice access.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns m[i, j] = v.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add assigns m[i, j] += v.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a copy of row i.
func (m *Dense) Row(i int) Vector {
	out := make(Vector, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) Vector {
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
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
func (m *Dense) MulVec(v Vector) (Vector, error) {
	if len(v) != m.cols {
		return nil, fmt.Errorf("mulvec %dx%d by %d: %w", m.rows, m.cols, len(v), ErrDimension)
	}
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, x := range row {
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

// QuadForm returns qᵀ·m·q, the quadratic form that Theorem 2 of the paper
// equates (up to (d1−d2)²) with the cut weight.
func (m *Dense) QuadForm(q Vector) (float64, error) {
	mv, err := m.MulVec(q)
	if err != nil {
		return 0, err
	}
	return q.Dot(mv)
}

// String renders the matrix for debugging (small matrices only).
func (m *Dense) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}
