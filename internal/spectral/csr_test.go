package spectral

import (
	"math/rand"
	"testing"

	"copmecs/internal/eigen"
	"copmecs/internal/matrix"
)

// randCSRGraph returns a connected random weighted graph on n nodes in the
// adjacency-array form BisectCSRInto takes, plus its edge list.
func randCSRGraph(rng *rand.Rand, n int) (off, tgt []int32, wts []float64, edges []matrix.WeightedEdge) {
	w := make(map[[2]int]float64)
	for i := 1; i < n; i++ {
		w[[2]int{rng.Intn(i), i}] = rng.Float64()*5 + 0.5
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u != v {
			w[[2]int{u, v}] = rng.Float64()*5 + 0.5
		}
	}
	adj := make([][]float64, n)
	for i := range adj {
		adj[i] = make([]float64, n)
	}
	for uv, x := range w {
		adj[uv[0]][uv[1]], adj[uv[1]][uv[0]] = x, x
	}
	off = make([]int32, n+1)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if adj[u][v] > 0 {
				tgt = append(tgt, int32(v))
				wts = append(wts, adj[u][v])
				if u < v {
					edges = append(edges, matrix.WeightedEdge{U: u, V: v, Weight: adj[u][v]})
				}
			}
		}
		off[u+1] = int32(len(tgt))
	}
	return off, tgt, wts, edges
}

// TestPropertyDenseAndLanczosCutAlike: with DenseCutoff forced to either
// side of the dimension, the two eigensolvers hand sweepCutCSR vectors that
// round to the same side sets — same cut and, because eigen.Fiedler orients
// its result, the same side called A. Graphs whose λ₂ is nearly repeated
// ((λ₃−λ₂)/λ₂ < 1e-3) are skipped: there the Fiedler vector itself is not
// determined to the accuracy Lanczos stops at.
func TestPropertyDenseAndLanczosCutAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checked := 0
	for trial := 0; trial < 150; trial++ {
		n := 8 + rng.Intn(72)
		off, tgt, wts, edges := randCSRGraph(rng, n)
		lap, err := matrix.Laplacian(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := eigen.Lanczos(lap, 3, eigen.LanczosOptions{MaxIter: n})
		if err != nil {
			t.Fatalf("trial %d n %d: spectrum: %v", trial, n, err)
		}
		if l2, l3 := pairs[1].Value, pairs[2].Value; (l3-l2)/l2 < 1e-3 {
			continue
		}
		checked++
		for _, obj := range []Objective{MinCut, RatioCut} {
			denseA, denseB, err := BisectCSRInto(off, tgt, wts, make([]int32, n), Options{Objective: obj, Eigen: eigen.FiedlerOptions{DenseCutoff: n}})
			if err != nil {
				t.Fatalf("trial %d n %d: dense: %v", trial, n, err)
			}
			lanA, lanB, err := BisectCSRInto(off, tgt, wts, make([]int32, n), Options{Objective: obj, Eigen: eigen.FiedlerOptions{DenseCutoff: 1}})
			if err != nil {
				t.Fatalf("trial %d n %d: lanczos: %v", trial, n, err)
			}
			if !equalSides(denseA, lanA) || !equalSides(denseB, lanB) {
				t.Errorf("trial %d n %d objective %d: dense A=%v B=%v, lanczos A=%v B=%v", trial, n, obj, denseA, denseB, lanA, lanB)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d of 150 graphs had a usable spectral gap", checked)
	}
}

func equalSides(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
