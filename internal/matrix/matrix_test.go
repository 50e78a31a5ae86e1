package matrix

import (
	"errors"
	"math"
	"testing"
)

const tol = 1e-10

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= tol }

// mulVec returns m·v.
func mulVec(m *CSR, v Vector) Vector {
	out := make(Vector, m.Rows())
	m.MulVecRange(v, out, 0, m.Rows())
	return out
}

// quadForm returns qᵀ·m·q, the quadratic form Theorem 2 of the paper
// equates (up to (d1−d2)²) with the cut weight.
func quadForm(m *CSR, q Vector) (float64, error) {
	return q.Dot(mulVec(m, q))
}

// dense expands m into rows.
func dense(t testing.TB, m *CSR) [][]float64 {
	t.Helper()
	flat, err := m.DenseInto(make([]float64, m.Rows()*m.Cols()))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, m.Rows())
	for i := range rows {
		rows[i] = flat[i*m.Cols() : (i+1)*m.Cols()]
	}
	return rows
}

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

func TestVectorAxpy(t *testing.T) {
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

func TestVectorMaxAbs(t *testing.T) {
	if m := (Vector{-7, 3}).MaxAbs(); m != 7 {
		t.Errorf("MaxAbs = %v, want 7", m)
	}
	if m := Vector(nil).MaxAbs(); m != 0 {
		t.Errorf("MaxAbs(nil) = %v, want 0", m)
	}
}

func TestCSRBasics(t *testing.T) {
	m, err := NewCSR(3, 3, []Triplet{
		{0, 1, 2}, {1, 0, 2}, {2, 2, 5}, {0, 1, 3}, // duplicate (0,1) coalesces
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	d := dense(t, m)
	if got := d[0][1]; got != 5 {
		t.Errorf("m[0][1] = %v, want 5 (coalesced)", got)
	}
	if got := d[1][1]; got != 0 {
		t.Errorf("m[1][1] = %v, want 0", got)
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
	if v := mulVec(m, Vector{1, 2}); v[0] != 5 || v[1] != 6 {
		t.Errorf("m·v = %v, want [5 6]", v)
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

func TestCSRDenseInto(t *testing.T) {
	m, err := NewCSR(2, 3, []Triplet{{0, 2, 4}, {1, 0, -1}, {1, 0, -2}})
	if err != nil {
		t.Fatal(err)
	}
	buf := []float64{9, 9, 9, 9, 9, 9} // stale values must not survive
	got, err := m.DenseInto(buf)
	if err != nil {
		t.Fatalf("DenseInto: %v", err)
	}
	want := []float64{0, 0, 4, -3, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("DenseInto = %v, want %v", got, want)
			break
		}
	}
	if _, err := m.DenseInto(make([]float64, 5)); !errors.Is(err, ErrDimension) {
		t.Errorf("short buffer error = %v, want ErrDimension", err)
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
	d := dense(t, l)
	for i := range want {
		for j := range want[i] {
			if got := d[i][j]; got != want[i][j] {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
	// Row sums are zero: L·1 = 0.
	for i, x := range mulVec(l, Vector{1, 1, 1}) {
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
	if got := dense(t, l)[0][0]; got != 1 {
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
	qf, err := quadForm(l, q)
	if err != nil {
		t.Fatal(err)
	}
	// Cut edges: (1,2)=2 and (0,2)=3 → 5.
	if !almostEqual(qf/4, 5) {
		t.Errorf("qᵀLq/4 = %v, want 5", qf/4)
	}
}
