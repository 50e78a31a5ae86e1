package eigen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"copmecs/internal/matrix"
)

// randSymmetric builds a random symmetric matrix.
func randSymmetric(rng *rand.Rand, n int) *matrix.Dense {
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := rng.NormFloat64() * 3
			m.Set(i, j, x)
			m.Set(j, i, x)
		}
	}
	return m
}

func TestPropertyJacobiOrthonormalColumns(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%10) + 2
		m := randSymmetric(rng, n)
		_, vecs, err := Jacobi(m, 0)
		if err != nil {
			return false
		}
		// VᵀV = I.
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				d, err := vecs.Col(i).Dot(vecs.Col(j))
				if err != nil {
					return false
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(d-want) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyJacobiTraceAndSpectrum(t *testing.T) {
	// Trace(A) = Σλ and the eigendecomposition reconstructs A: V·Λ·Vᵀ = A.
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%8) + 2
		m := randSymmetric(rng, n)
		vals, vecs, err := Jacobi(m, 0)
		if err != nil {
			return false
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += m.At(i, i)
			sum += vals[i]
		}
		if math.Abs(trace-sum) > 1e-8*(1+math.Abs(trace)) {
			return false
		}
		// Reconstruction check on a random coordinate pair.
		i, j := rng.Intn(n), rng.Intn(n)
		var rec float64
		for k := 0; k < n; k++ {
			rec += vals[k] * vecs.At(i, k) * vecs.At(j, k)
		}
		return math.Abs(rec-m.At(i, j)) < 1e-7*(1+math.Abs(m.At(i, j)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLanczosAgreesWithJacobiOnLaplacians(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%20) + 5
		var edges []matrix.WeightedEdge
		for i := 1; i < n; i++ {
			edges = append(edges, matrix.WeightedEdge{U: rng.Intn(i), V: i, Weight: rng.Float64()*5 + 0.5})
		}
		for k := 0; k < n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, matrix.WeightedEdge{U: u, V: v, Weight: rng.Float64()*5 + 0.5})
			}
		}
		l, err := matrix.Laplacian(n, edges)
		if err != nil {
			return false
		}
		jv, _, err := Jacobi(l.Dense(), 1e-9)
		if err != nil {
			return false
		}
		pairs, err := Lanczos(l, 2, LanczosOptions{MaxIter: n, Seed: seed})
		if err != nil {
			return false
		}
		for k, p := range pairs {
			if math.Abs(p.Value-jv[k]) > 1e-5*(1+math.Abs(jv[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFiedlerValueIsMinCutBound(t *testing.T) {
	// By Theorem 1 the minimum cut relates to λ₂; more precisely (and
	// checkably) λ₂ ≤ n/( |A|·|B| ) · Cut(A,B) for every bipartition (A,B)
	// — here checked against the sign-split of the Fiedler vector itself
	// via the Rayleigh quotient: λ₂ ≤ qᵀLq/qᵀq for any q ⟂ 1.
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%16) + 4
		var edges []matrix.WeightedEdge
		for i := 1; i < n; i++ {
			edges = append(edges, matrix.WeightedEdge{U: rng.Intn(i), V: i, Weight: rng.Float64()*5 + 0.5})
		}
		l, err := matrix.Laplacian(n, edges)
		if err != nil {
			return false
		}
		lam, _, err := Fiedler(l, FiedlerOptions{})
		if err != nil {
			return false
		}
		// Random vector, projected orthogonal to 1 and normalised.
		q := make(matrix.Vector, n)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		ones := make(matrix.Vector, n)
		for i := range ones {
			ones[i] = 1 / math.Sqrt(float64(n))
		}
		if err := q.ProjectOut(ones); err != nil {
			return false
		}
		if q.Normalize() == 0 {
			return true // degenerate draw
		}
		qf, err := l.QuadForm(q)
		if err != nil {
			return false
		}
		return lam <= qf+1e-7*(1+qf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
