package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randEdges generates a random undirected edge list over n nodes.
func randEdges(rng *rand.Rand, n int) []WeightedEdge {
	m := rng.Intn(3*n + 1)
	edges := make([]WeightedEdge, 0, m)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		edges = append(edges, WeightedEdge{U: u, V: v, Weight: rng.Float64()*10 + 0.01})
	}
	return edges
}

func TestPropertyLaplacianPSD(t *testing.T) {
	// qᵀLq ≥ 0 for every real q (the Laplacian is positive semi-definite).
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%20) + 2
		l, err := Laplacian(n, randEdges(rng, n))
		if err != nil {
			return false
		}
		q := make(Vector, n)
		for i := range q {
			q[i] = rng.NormFloat64() * 5
		}
		qf, err := quadForm(l, q)
		if err != nil {
			return false
		}
		return qf >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTheorem2Identity(t *testing.T) {
	// Theorem 2: for q_i ∈ {d1, d2}, CUT(A,B) = qᵀLq / (d1−d2)².
	f := func(seed int64, nn uint8, d1, d2 int8) bool {
		if d1 == d2 {
			return true // degenerate labelling carries no cut information
		}
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%20) + 2
		edges := randEdges(rng, n)
		l, err := Laplacian(n, edges)
		if err != nil {
			return false
		}
		q := make(Vector, n)
		sideA := make([]bool, n)
		for i := range q {
			if rng.Intn(2) == 0 {
				q[i], sideA[i] = float64(d1), true
			} else {
				q[i] = float64(d2)
			}
		}
		var cut float64
		for _, e := range edges {
			if sideA[e.U] != sideA[e.V] {
				cut += e.Weight
			}
		}
		qf, err := quadForm(l, q)
		if err != nil {
			return false
		}
		diff := float64(d1) - float64(d2)
		denom := diff * diff
		return math.Abs(qf/denom-cut) < 1e-6*(1+cut)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLaplacianRowSumsZero(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%30) + 1
		l, err := Laplacian(n, randEdges(rng, n))
		if err != nil {
			return false
		}
		ones := make(Vector, n)
		for i := range ones {
			ones[i] = 1
		}
		return mulVec(l, ones).MaxAbs() < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCSRMatchesDense(t *testing.T) {
	f := func(seed int64, rr, cc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := int(rr%10)+1, int(cc%10)+1
		var tr []Triplet
		for i := 0; i < rng.Intn(20); i++ {
			tr = append(tr, Triplet{Row: rng.Intn(r), Col: rng.Intn(c), Val: rng.NormFloat64()})
		}
		m, err := NewCSR(r, c, tr)
		if err != nil {
			return false
		}
		v := make(Vector, c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		// The product over the dense expansion, row by row.
		diff := mulVec(m, v)
		for i, row := range dense(t, m) {
			for j, x := range row {
				diff[i] -= x * v[j]
			}
		}
		return diff.MaxAbs() < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMulVecRangeCoversMulVec(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nn%15) + 2
		l, err := Laplacian(n, randEdges(rng, n))
		if err != nil {
			return false
		}
		v := make(Vector, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		diff := mulVec(l, v)
		parts := make(Vector, n)
		mid := n / 2
		l.MulVecRange(v, parts, 0, mid)
		l.MulVecRange(v, parts, mid, n)
		if err := diff.Axpy(-1, parts); err != nil {
			return false
		}
		return diff.MaxAbs() < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
