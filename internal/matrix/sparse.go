package matrix

import (
	"fmt"
	"sort"
)

// Triplet is one (row, col, value) entry used to assemble a sparse matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. It is immutable after construction,
// which makes concurrent MulVecRange calls safe.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR assembles a CSR matrix from triplets. Duplicate (row, col) entries
// are summed. Entries out of range are an error.
func NewCSR(rows, cols int, entries []Triplet) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("csr %dx%d: %w", rows, cols, ErrDimension)
	}
	counts := make([]int, rows+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("csr entry (%d,%d) outside %dx%d: %w",
				e.Row, e.Col, rows, cols, ErrDimension)
		}
		counts[e.Row+1]++
	}
	for i := 1; i <= rows; i++ {
		counts[i] += counts[i-1]
	}
	// Bucket entries per row, then sort each row by column and coalesce.
	colIdx := make([]int, len(entries))
	vals := make([]float64, len(entries))
	next := make([]int, rows)
	copy(next, counts[:rows])
	for _, e := range entries {
		p := next[e.Row]
		colIdx[p] = e.Col
		vals[p] = e.Val
		next[e.Row]++
	}
	m := &CSR{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, 0, len(entries)),
		vals:   make([]float64, 0, len(entries)),
	}
	for r := 0; r < rows; r++ {
		lo, hi := counts[r], counts[r+1]
		row := make([]Triplet, 0, hi-lo)
		for k := lo; k < hi; k++ {
			row = append(row, Triplet{Row: r, Col: colIdx[k], Val: vals[k]})
		}
		sort.Slice(row, func(i, j int) bool { return row[i].Col < row[j].Col })
		for _, e := range row {
			if n := len(m.colIdx); n > m.rowPtr[r] && m.colIdx[n-1] == e.Col {
				m.vals[n-1] += e.Val // coalesce duplicate within the row
				continue
			}
			m.colIdx = append(m.colIdx, e.Col)
			m.vals = append(m.vals, e.Val)
		}
		m.rowPtr[r+1] = len(m.colIdx)
	}
	return m, nil
}

// ResetParts points m at pre-assembled CSR arrays without copying: row i's
// entries are colIdx[rowPtr[i]:rowPtr[i+1]] with values vals. The caller
// promises rowPtr is monotone starting at 0 and every column index is in
// range; only the cheap O(rows) shape checks run here (the per-entry
// invariants are the caller's, letting hot paths assemble Laplacians into
// pooled buffers without NewCSR's triplet bucketing and per-row sorts). The
// matrix aliases the given slices — the caller must not modify them while
// the matrix is in use, and may reclaim them once it is dead. Resetting in
// place lets callers funnel many short-lived assemblies through one reusable
// CSR (the spectral cut hot path builds a fresh Laplacian per bisection).
func (m *CSR) ResetParts(rows, cols int, rowPtr, colIdx []int, vals []float64) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("csr %dx%d: %w", rows, cols, ErrDimension)
	}
	if len(rowPtr) != rows+1 {
		return fmt.Errorf("csr %dx%d: rowPtr length %d: %w", rows, cols, len(rowPtr), ErrDimension)
	}
	if rows > 0 && rowPtr[0] != 0 {
		return fmt.Errorf("csr %dx%d: rowPtr[0] = %d: %w", rows, cols, rowPtr[0], ErrDimension)
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return fmt.Errorf("csr %dx%d: rowPtr not monotone at %d: %w", rows, cols, i, ErrDimension)
		}
	}
	if nnz := rowPtr[rows]; nnz != len(colIdx) || nnz != len(vals) {
		return fmt.Errorf("csr %dx%d: nnz %d vs %d cols, %d vals: %w",
			rows, cols, rowPtr[rows], len(colIdx), len(vals), ErrDimension)
	}
	*m = CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
	return nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// MulVecRange computes rows [lo, hi) of m·v into out[lo:hi]. It performs no
// allocation: the Lanczos iteration multiplies into a vector it owns.
// The caller guarantees len(v) == Cols, len(out) == Rows and 0 ≤ lo ≤ hi ≤ Rows.
func (m *CSR) MulVecRange(v, out Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			sum += m.vals[k] * v[m.colIdx[k]]
		}
		out[i] = sum
	}
}

// MaxAbs returns the largest absolute stored entry of m (0 for none).
func (m *CSR) MaxAbs() float64 { return Vector(m.vals).MaxAbs() }

// Scaled returns s·m. The result shares m's index arrays (neither matrix
// modifies them) and owns a fresh copy of the values.
func (m *CSR) Scaled(s float64) *CSR {
	vals := make([]float64, len(m.vals))
	for i, x := range m.vals {
		vals[i] = x * s
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: m.rowPtr, colIdx: m.colIdx, vals: vals}
}

// DenseInto scatters m's stored entries into dst, a caller-owned row-major
// rows×cols buffer, and returns dst. dst is zeroed first, so every entry m
// does not store reads 0; the dense Fiedler kernel hands in pooled scratch.
func (m *CSR) DenseInto(dst []float64) ([]float64, error) {
	if len(dst) != m.rows*m.cols {
		return nil, fmt.Errorf("csr dense-into %dx%d buffer %d: %w", m.rows, m.cols, len(dst), ErrDimension)
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := dst[i*m.cols : (i+1)*m.cols]
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			row[m.colIdx[k]] = m.vals[k]
		}
	}
	return dst, nil
}
