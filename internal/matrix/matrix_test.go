package matrix

import (
	"errors"
	"math"
	"testing"
)

const tol = 1e-10

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= tol }

func TestVectorDot(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	got, err := v.Dot(w)
	if err != nil {
		t.Fatalf("Dot: %v", err)
	}
	if got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if _, err := v.Dot(Vector{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched Dot error = %v, want ErrDimension", err)
	}
}

func TestVectorNormScale(t *testing.T) {
	v := Vector{3, 4}
	if n := v.Norm(); n != 5 {
		t.Errorf("Norm = %v, want 5", n)
	}
	v.Scale(2)
	if v[0] != 6 || v[1] != 8 {
		t.Errorf("Scale = %v, want [6 8]", v)
	}
	if n := v.Normalize(); !almostEqual(n, 10) {
		t.Errorf("Normalize returned %v, want 10", n)
	}
	if !almostEqual(v.Norm(), 1) {
		t.Errorf("normalized Norm = %v, want 1", v.Norm())
	}
	zero := Vector{0, 0}
	if n := zero.Normalize(); n != 0 {
		t.Errorf("Normalize(0) = %v, want 0", n)
	}
}

func TestVectorAxpySub(t *testing.T) {
	v := Vector{1, 1}
	if err := v.Axpy(3, Vector{2, 4}); err != nil {
		t.Fatalf("Axpy: %v", err)
	}
	if v[0] != 7 || v[1] != 13 {
		t.Errorf("Axpy = %v, want [7 13]", v)
	}
	if err := v.Axpy(1, Vector{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("Axpy mismatch error = %v", err)
	}
	d, err := Vector{5, 5}.Sub(Vector{2, 3})
	if err != nil || d[0] != 3 || d[1] != 2 {
		t.Errorf("Sub = %v, %v; want [3 2]", d, err)
	}
	if _, err := (Vector{1}).Sub(Vector{1, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("Sub mismatch error = %v", err)
	}
}

func TestVectorProjectOut(t *testing.T) {
	u := Vector{1, 0}
	v := Vector{3, 4}
	if err := v.ProjectOut(u); err != nil {
		t.Fatalf("ProjectOut: %v", err)
	}
	if !almostEqual(v[0], 0) || !almostEqual(v[1], 4) {
		t.Errorf("ProjectOut = %v, want [0 4]", v)
	}
	d, err := v.Dot(u)
	if err != nil || !almostEqual(d, 0) {
		t.Errorf("residual dot = %v, want 0", d)
	}
}

func TestVectorMaxAbsClone(t *testing.T) {
	v := Vector{-7, 3}
	if m := v.MaxAbs(); m != 7 {
		t.Errorf("MaxAbs = %v, want 7", m)
	}
	c := v.Clone()
	c[0] = 99
	if v[0] != -7 {
		t.Error("Clone aliased original")
	}
	if m := Vector(nil).MaxAbs(); m != 0 {
		t.Errorf("MaxAbs(nil) = %v, want 0", m)
	}
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if got := m.At(0, 1); got != 7 {
		t.Errorf("At(0,1) = %v, want 7", got)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Errorf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	r := m.Row(0)
	if len(r) != 3 || r[1] != 7 {
		t.Errorf("Row(0) = %v", r)
	}
	r[1] = 0
	if m.At(0, 1) != 7 {
		t.Error("Row returned aliased data")
	}
	c := m.Col(1)
	if len(c) != 2 || c[0] != 7 {
		t.Errorf("Col(1) = %v", c)
	}
}

func TestDenseFromRows(t *testing.T) {
	m, err := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("DenseFromRows: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := DenseFromRows([][]float64{{1}, {2, 3}}); !errors.Is(err, ErrDimension) {
		t.Errorf("ragged rows error = %v, want ErrDimension", err)
	}
	empty, err := DenseFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Errorf("empty DenseFromRows = %v, %v", empty, err)
	}
}

func TestDenseMulVec(t *testing.T) {
	m, err := DenseFromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.MulVec(Vector{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", v)
	}
	if _, err := m.MulVec(Vector{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("MulVec mismatch error = %v", err)
	}
}

func TestDenseIdentitySymmetric(t *testing.T) {
	id := Identity(3)
	m, err := DenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !id.IsSymmetric(0) {
		t.Error("identity not symmetric")
	}
	if m.IsSymmetric(0) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewDense(2, 3).IsSymmetric(0) {
		t.Error("non-square matrix reported symmetric")
	}
}

func TestDenseClone(t *testing.T) {
	m := Identity(2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone aliased original")
	}
}

func TestDenseQuadForm(t *testing.T) {
	m, err := DenseFromRows([][]float64{{2, -1}, {-1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := m.QuadForm(Vector{1, 1})
	if err != nil {
		t.Fatalf("QuadForm: %v", err)
	}
	if q != 2 {
		t.Errorf("QuadForm = %v, want 2", q)
	}
}

func TestCSRBasics(t *testing.T) {
	m, err := NewCSR(3, 3, []Triplet{
		{0, 1, 2}, {1, 0, 2}, {2, 2, 5}, {0, 1, 3}, // duplicate (0,1) coalesces
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5 (coalesced)", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
	if got := m.At(-1, 0); got != 0 {
		t.Errorf("At(out of range) = %v, want 0", got)
	}
}

func TestCSRErrors(t *testing.T) {
	if _, err := NewCSR(2, 2, []Triplet{{5, 0, 1}}); !errors.Is(err, ErrDimension) {
		t.Errorf("out-of-range entry error = %v", err)
	}
	if _, err := NewCSR(-1, 2, nil); !errors.Is(err, ErrDimension) {
		t.Errorf("negative rows error = %v", err)
	}
}

func TestCSRMulVec(t *testing.T) {
	// [[1 2],[0 3]]
	m, err := NewCSR(2, 2, []Triplet{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.MulVec(Vector{1, 2})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if v[0] != 5 || v[1] != 6 {
		t.Errorf("MulVec = %v, want [5 6]", v)
	}
	if _, err := m.MulVec(Vector{1}); !errors.Is(err, ErrDimension) {
		t.Errorf("MulVec mismatch error = %v", err)
	}
}

func TestCSRMulVecRange(t *testing.T) {
	m, err := NewCSR(3, 3, []Triplet{{0, 0, 1}, {1, 1, 2}, {2, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	v := Vector{1, 1, 1}
	out := make(Vector, 3)
	m.MulVecRange(v, out, 1, 3)
	if out[0] != 0 || out[1] != 2 || out[2] != 3 {
		t.Errorf("MulVecRange = %v, want [0 2 3]", out)
	}
}

func TestCSRDenseMatchesAt(t *testing.T) {
	m, err := NewCSR(2, 3, []Triplet{{0, 2, 4}, {1, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dense()
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if d.At(i, j) != m.At(i, j) {
				t.Errorf("Dense()[%d][%d] = %v, CSR At = %v", i, j, d.At(i, j), m.At(i, j))
			}
		}
	}
}

func TestLaplacianSmall(t *testing.T) {
	// Triangle with weights: (0,1)=1, (1,2)=2, (0,2)=3.
	l, err := Laplacian(3, []WeightedEdge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}})
	if err != nil {
		t.Fatalf("Laplacian: %v", err)
	}
	want := [][]float64{
		{4, -1, -3},
		{-1, 3, -2},
		{-3, -2, 5},
	}
	for i := range want {
		for j := range want[i] {
			if got := l.At(i, j); got != want[i][j] {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	// Row sums are zero: L·1 = 0.
	ones := Vector{1, 1, 1}
	lv, err := l.MulVec(ones)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range lv {
		if !almostEqual(x, 0) {
			t.Errorf("(L·1)[%d] = %v, want 0", i, x)
		}
	}
}

func TestLaplacianErrorsAndSelfLoops(t *testing.T) {
	if _, err := Laplacian(2, []WeightedEdge{{0, 5, 1}}); !errors.Is(err, ErrDimension) {
		t.Errorf("out-of-range edge error = %v", err)
	}
	l, err := Laplacian(2, []WeightedEdge{{0, 0, 7}, {0, 1, 1}})
	if err != nil {
		t.Fatalf("Laplacian with self-loop: %v", err)
	}
	if got := l.At(0, 0); got != 1 {
		t.Errorf("self-loop affected degree: L[0][0] = %v, want 1", got)
	}
}

func TestLaplacianQuadFormIsCut(t *testing.T) {
	// Theorem 2 with d1=1, d2=-1: CUT = qᵀLq / 4.
	edges := []WeightedEdge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {2, 3, 4}}
	l, err := Laplacian(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	q := Vector{1, 1, -1, -1} // side A = {0,1}
	qf, err := l.QuadForm(q)
	if err != nil {
		t.Fatal(err)
	}
	// Cut edges: (1,2)=2 and (0,2)=3 → 5.
	if !almostEqual(qf/4, 5) {
		t.Errorf("qᵀLq/4 = %v, want 5", qf/4)
	}
}
