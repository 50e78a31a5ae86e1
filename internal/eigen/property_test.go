package eigen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"copmecs/internal/matrix"
)

// randSymmetric builds a random symmetric matrix.
func randSymmetric(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
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

// TestPropertyLanczosAgreesWithJacobiOnLaplacians: on random connected
// Laplacians the Lanczos Fiedler pair is the Jacobi oracle's — λ₂ and the
// vector up to sign.
func TestPropertyLanczosAgreesWithJacobiOnLaplacians(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%20) + 5
		l := randLaplacian(rng, n)
		lam, vec, err := lanczosFiedler(l, nil)
		if err != nil {
			t.Logf("seed %d n %d: %v", seed, n, err)
			return false
		}
		refVal, refVec := oracleFiedler(t, l)
		dot, err := vec.Dot(refVec)
		if err != nil || math.Abs(lam-refVal) > 1e-9*(1+refVal) || math.Abs(math.Abs(dot)-1) > 1e-9 {
			t.Logf("seed %d n %d: λ₂ %v vs oracle %v, |⟨v, oracle⟩| = %v", seed, n, lam, refVal, math.Abs(dot))
			return false
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
		qf, err := q.Dot(mulVec(l, q))
		if err != nil {
			return false
		}
		return lam <= qf+1e-7*(1+qf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
