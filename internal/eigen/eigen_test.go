package eigen

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"copmecs/internal/matrix"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mustDense builds a dense matrix from rows.
func mustDense(t *testing.T, rows [][]float64) *Dense {
	t.Helper()
	m, err := DenseFromRows(rows)
	if err != nil {
		t.Fatalf("DenseFromRows: %v", err)
	}
	return m
}

// pathLaplacian returns the Laplacian of the unweighted path 0-1-…-(n−1).
// Its eigenvalues are known in closed form: λ_k = 2−2·cos(πk/n), k=0..n−1.
func pathLaplacian(t *testing.T, n int) *matrix.CSR {
	t.Helper()
	edges := make([]matrix.WeightedEdge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, matrix.WeightedEdge{U: i, V: i + 1, Weight: 1})
	}
	l, err := matrix.Laplacian(n, edges)
	if err != nil {
		t.Fatalf("Laplacian: %v", err)
	}
	return l
}

func pathEigenvalue(n, k int) float64 {
	return 2 - 2*math.Cos(math.Pi*float64(k)/float64(n))
}

func TestJacobiDiagonal(t *testing.T) {
	m := mustDense(t, [][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := Jacobi(m, 0)
	if err != nil {
		t.Fatalf("Jacobi: %v", err)
	}
	if !almostEqual(vals[0], 1, 1e-12) || !almostEqual(vals[1], 3, 1e-12) {
		t.Errorf("vals = %v, want [1 3]", vals)
	}
	// Eigenvector for λ=1 is e₂ (up to sign).
	if math.Abs(vecs.At(1, 0)) < 0.99 {
		t.Errorf("eigenvector for λ=1 = %v", vecs.Col(0))
	}
}

func TestJacobiKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	m := mustDense(t, [][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := Jacobi(m, 0)
	if err != nil {
		t.Fatalf("Jacobi: %v", err)
	}
	if !almostEqual(vals[0], 1, 1e-12) || !almostEqual(vals[1], 3, 1e-12) {
		t.Errorf("vals = %v, want [1 3]", vals)
	}
	// Check A·v = λ·v for both pairs.
	for i := 0; i < 2; i++ {
		v := vecs.Col(i)
		av, err := m.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := av.Axpy(-vals[i], v); err != nil {
			t.Fatal(err)
		}
		if av.Norm() > 1e-10 {
			t.Errorf("residual for pair %d = %v", i, av.Norm())
		}
	}
}

func TestJacobiRejectsAsymmetric(t *testing.T) {
	m := mustDense(t, [][]float64{{1, 2}, {3, 4}})
	if _, _, err := Jacobi(m, 1e-12); !errors.Is(err, ErrNotSymmetric) {
		t.Errorf("asymmetric error = %v, want ErrNotSymmetric", err)
	}
	if _, _, err := Jacobi(NewDense(0, 0), 0); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty error = %v, want ErrEmpty", err)
	}
}

func TestJacobiRandomResiduals(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(12)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				x := rng.NormFloat64()
				m.Set(i, j, x)
				m.Set(j, i, x)
			}
		}
		vals, vecs, err := Jacobi(m, 1e-12)
		if err != nil {
			t.Fatalf("Jacobi n=%d: %v", n, err)
		}
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatalf("eigenvalues not ascending: %v", vals)
			}
		}
		for i := 0; i < n; i++ {
			v := vecs.Col(i)
			av, err := m.MulVec(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := av.Axpy(-vals[i], v); err != nil {
				t.Fatal(err)
			}
			if av.Norm() > 1e-8 {
				t.Errorf("n=%d pair %d residual = %v", n, i, av.Norm())
			}
		}
	}
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 7)
	if got := m.At(0, 1); got != 7 {
		t.Errorf("At(0,1) = %v, want 7", got)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Errorf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	c := m.Col(1)
	if len(c) != 2 || c[0] != 7 {
		t.Errorf("Col(1) = %v", c)
	}
	c[0] = 0
	if m.At(0, 1) != 7 {
		t.Error("Col returned aliased data")
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
	if _, err := DenseFromRows([][]float64{{1}, {2, 3}}); !errors.Is(err, matrix.ErrDimension) {
		t.Errorf("ragged rows error = %v, want ErrDimension", err)
	}
	empty, err := DenseFromRows(nil)
	if err != nil || empty.Rows() != 0 {
		t.Errorf("empty DenseFromRows = %v, %v", empty, err)
	}
}

func TestDenseMulVec(t *testing.T) {
	m := mustDense(t, [][]float64{{1, 2}, {3, 4}})
	v, err := m.MulVec(matrix.Vector{1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", v)
	}
	if _, err := m.MulVec(matrix.Vector{1}); !errors.Is(err, matrix.ErrDimension) {
		t.Errorf("MulVec mismatch error = %v", err)
	}
}

func TestDenseIdentitySymmetric(t *testing.T) {
	if !Identity(3).IsSymmetric(0) {
		t.Error("identity not symmetric")
	}
	if mustDense(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}).IsSymmetric(0) {
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

func TestSymTridiagEigenKnown(t *testing.T) {
	// Tridiagonal of the path graph Laplacian P3: diag [1,2,1], sub [-1,-1].
	// Eigenvalues are 0, 1, 3.
	d := []float64{1, 2, 1}
	e := []float64{-1, -1}
	vecs := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if err := SymTridiagEigen(d, e, vecs); err != nil {
		t.Fatalf("SymTridiagEigen: %v", err)
	}
	want := []float64{0, 1, 3}
	for i := range want {
		if !almostEqual(d[i], want[i], 1e-10) {
			t.Errorf("λ[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestSymTridiagEigenVectors(t *testing.T) {
	// Verify T·v = λ·v for a random tridiagonal.
	rng := rand.New(rand.NewSource(3))
	n := 8
	diag := make([]float64, n)
	sub := make([]float64, n-1)
	for i := range diag {
		diag[i] = rng.NormFloat64() * 3
	}
	for i := range sub {
		sub[i] = rng.NormFloat64()
	}
	d := append([]float64(nil), diag...)
	e := append([]float64(nil), sub...)
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, n)
		vecs[i][i] = 1
	}
	if err := SymTridiagEigen(d, e, vecs); err != nil {
		t.Fatalf("SymTridiagEigen: %v", err)
	}
	mulT := func(v []float64) []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = diag[i] * v[i]
			if i > 0 {
				out[i] += sub[i-1] * v[i-1]
			}
			if i < n-1 {
				out[i] += sub[i] * v[i+1]
			}
		}
		return out
	}
	for col := 0; col < n; col++ {
		v := make([]float64, n)
		for row := 0; row < n; row++ {
			v[row] = vecs[row][col]
		}
		tv := mulT(v)
		var res float64
		for i := range tv {
			r := tv[i] - d[col]*v[i]
			res += r * r
		}
		if math.Sqrt(res) > 1e-8 {
			t.Errorf("pair %d residual = %v", col, math.Sqrt(res))
		}
	}
	for i := 1; i < n; i++ {
		if d[i] < d[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", d)
		}
	}
}

func TestSymTridiagEigenErrors(t *testing.T) {
	if err := SymTridiagEigen(nil, nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty error = %v", err)
	}
	if err := SymTridiagEigen([]float64{1, 2}, nil, nil); err == nil {
		t.Error("short sub-diagonal accepted")
	}
	if err := SymTridiagEigen([]float64{5}, nil, nil); err != nil {
		t.Errorf("1x1 error = %v, want nil", err)
	}
}

// mulVec returns l·v.
func mulVec(l *matrix.CSR, v matrix.Vector) matrix.Vector {
	out := make(matrix.Vector, l.Rows())
	l.MulVecRange(v, out, 0, l.Rows())
	return out
}

// checkLanczosPair holds the Lanczos Fiedler pair of l to the Jacobi
// oracle's: λ₂ within tol·(1 + λ₂) and the vector within tol of ± the
// oracle's, which needs a simple λ₂. It also requires a unit vector ⟂ 1
// with residual ‖Lv − λ₂v‖ ≤ tol·(1 + ‖L‖), and returns λ₂.
func checkLanczosPair(t *testing.T, l *matrix.CSR, tol float64) float64 {
	t.Helper()
	lam, vec, err := lanczosFiedler(l, nil)
	if err != nil {
		t.Fatalf("lanczos: %v", err)
	}
	refVal, refVec := oracleFiedler(t, l)
	if math.Abs(lam-refVal) > tol*(1+refVal) {
		t.Errorf("λ₂ = %v, oracle %v", lam, refVal)
	}
	if dot, err := vec.Dot(refVec); err != nil || math.Abs(math.Abs(dot)-1) > tol {
		t.Errorf("|⟨v, oracle⟩| = %v (%v), want 1", math.Abs(dot), err)
	}
	if !almostEqual(vec.Norm(), 1, 1e-12) {
		t.Errorf("‖v‖ = %v, want 1", vec.Norm())
	}
	var sum float64
	for _, x := range vec {
		sum += x
	}
	if math.Abs(sum) > 1e-12*math.Sqrt(float64(len(vec))) {
		t.Errorf("⟨v, 1⟩ = %g", sum)
	}
	res := mulVec(l, vec)
	if err := res.Axpy(-lam, vec); err != nil {
		t.Fatal(err)
	}
	if res.Norm() > tol*(1+matrixNorm(l)) {
		t.Errorf("‖Lv − λ₂v‖ = %g", res.Norm())
	}
	return lam
}

func TestLanczosMatchesJacobiOnPath(t *testing.T) {
	n := 30
	if lam := checkLanczosPair(t, pathLaplacian(t, n), 1e-9); !almostEqual(lam, pathEigenvalue(n, 1), 1e-12) {
		t.Errorf("λ₂ = %v, want %v", lam, pathEigenvalue(n, 1))
	}
}

func TestLanczosResiduals(t *testing.T) {
	checkLanczosPair(t, pathLaplacian(t, 50), 1e-9)
}

// TestLanczosErrors: an empty operator is ErrEmpty with the Lanczos path
// selected too, and the Lanczos path fails loudly — ErrNoConvergence, never
// a pair — when its Krylov budget (4√n + 150 steps) cannot resolve λ₂: on a
// 600-node unit path the gap λ₃ − λ₂ is 2e-5 of the spectrum's width.
func TestLanczosErrors(t *testing.T) {
	empty, err := matrix.NewCSR(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Fiedler(empty, FiedlerOptions{DenseCutoff: 1}); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty error = %v", err)
	}
	if lam, _, err := lanczosFiedler(pathLaplacian(t, 600), nil); !errors.Is(err, ErrNoConvergence) {
		t.Errorf("600-node path: λ₂ = %v, err = %v, want ErrNoConvergence", lam, err)
	}
}

func TestDeflatedRemovesNullspace(t *testing.T) {
	// With the constant vector deflated, the smallest eigenvalue Lanczos
	// finds is λ₂, not the Laplacian's 0: path λ₂ = 2 − 2cos(π/n), star
	// λ₂ = 1, and two w-weight cliques of m joined by an ε bridge has λ₂ on
	// the order of ε (≤ 2ε/m by the Rayleigh quotient of the cluster indicator).
	const n = 12
	var star []matrix.WeightedEdge
	for i := 1; i < n; i++ {
		star = append(star, matrix.WeightedEdge{U: 0, V: i, Weight: 1})
	}
	clusters := append(cliqueEdges(0, n/2, 4), cliqueEdges(n/2, n, 4)...)
	clusters = append(clusters, matrix.WeightedEdge{U: 0, V: n / 2, Weight: 0.01})
	for _, c := range []struct {
		name   string
		edges  []matrix.WeightedEdge
		lo, hi float64
	}{
		{"path", pathEdges(n, 1), pathEigenvalue(n, 1) - 1e-6, pathEigenvalue(n, 1) + 1e-6},
		{"star", star, 1 - 1e-6, 1 + 1e-6},
		{"two-cluster", clusters, 1e-4, 2 * 0.01 / (n / 2)},
	} {
		l, err := matrix.Laplacian(n, c.edges)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lam, vec, err := lanczosFiedler(l, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if lam < c.lo || lam > c.hi {
			t.Errorf("%s: smallest deflated eigenvalue = %v, want λ₂ in [%v, %v]", c.name, lam, c.lo, c.hi)
		}
		var sum float64
		for _, x := range vec {
			sum += x
		}
		if !almostEqual(sum, 0, 1e-9) {
			t.Errorf("%s: deflated eigenvector has component %v along 1", c.name, sum)
		}
	}
}

func TestFiedlerPathDense(t *testing.T) {
	n := 20 // below the dense cutoff
	l := pathLaplacian(t, n)
	lam, vec, err := Fiedler(l, FiedlerOptions{})
	if err != nil {
		t.Fatalf("Fiedler: %v", err)
	}
	if !almostEqual(lam, pathEigenvalue(n, 1), 1e-8) {
		t.Errorf("λ₂ = %v, want %v", lam, pathEigenvalue(n, 1))
	}
	// The Fiedler vector of a path is monotone: sign split = half/half.
	neg := 0
	for _, x := range vec {
		if x < 0 {
			neg++
		}
	}
	if neg != n/2 {
		t.Errorf("sign split = %d negative, want %d", neg, n/2)
	}
}

func TestFiedlerPathLanczos(t *testing.T) {
	n := 150
	l := pathLaplacian(t, n)
	lam, vec, err := Fiedler(l, FiedlerOptions{DenseCutoff: 1})
	if err != nil {
		t.Fatalf("Fiedler: %v", err)
	}
	if !almostEqual(lam, pathEigenvalue(n, 1), 1e-5) {
		t.Errorf("λ₂ = %v, want %v", lam, pathEigenvalue(n, 1))
	}
	var dot float64
	for _, x := range vec {
		dot += x
	}
	if math.Abs(dot) > 1e-6 {
		t.Errorf("Fiedler vector not ⟂ 1: Σ = %v", dot)
	}
}

func TestFiedlerDumbbell(t *testing.T) {
	// Two dense K5 cliques joined by one weak edge: the Fiedler sign split
	// must separate the cliques.
	var edges []matrix.WeightedEdge
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges,
				matrix.WeightedEdge{U: i, V: j, Weight: 10},
				matrix.WeightedEdge{U: 5 + i, V: 5 + j, Weight: 10})
		}
	}
	edges = append(edges, matrix.WeightedEdge{U: 0, V: 5, Weight: 0.1})
	l, err := matrix.Laplacian(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	_, vec, err := Fiedler(l, FiedlerOptions{})
	if err != nil {
		t.Fatalf("Fiedler: %v", err)
	}
	for i := 1; i < 5; i++ {
		if (vec[i] >= 0) != (vec[0] >= 0) {
			t.Errorf("clique A split: vec[%d]=%v vec[0]=%v", i, vec[i], vec[0])
		}
		if (vec[5+i] >= 0) != (vec[5] >= 0) {
			t.Errorf("clique B split: vec[%d]=%v vec[5]=%v", 5+i, vec[5+i], vec[5])
		}
	}
	if (vec[0] >= 0) == (vec[5] >= 0) {
		t.Error("cliques on the same side")
	}
}

func TestFiedlerErrors(t *testing.T) {
	one, err := matrix.NewCSR(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Fiedler(one, FiedlerOptions{}); !errors.Is(err, ErrEmpty) {
		t.Errorf("1-node error = %v, want ErrEmpty", err)
	}
	rect, err := matrix.NewCSR(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Fiedler(rect, FiedlerOptions{}); !errors.Is(err, matrix.ErrDimension) {
		t.Errorf("rect error = %v, want ErrDimension", err)
	}
}

func TestFiedlerDisconnected(t *testing.T) {
	// Two components → λ₂ = 0 and the Fiedler vector separates them.
	edges := []matrix.WeightedEdge{{U: 0, V: 1, Weight: 1}, {U: 2, V: 3, Weight: 1}}
	l, err := matrix.Laplacian(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	lam, vec, err := Fiedler(l, FiedlerOptions{})
	if err != nil {
		t.Fatalf("Fiedler: %v", err)
	}
	if !almostEqual(lam, 0, 1e-9) {
		t.Errorf("λ₂ = %v, want 0 for disconnected graph", lam)
	}
	if (vec[0] >= 0) != (vec[1] >= 0) || (vec[2] >= 0) != (vec[3] >= 0) {
		t.Errorf("components internally split: %v", vec)
	}
}
