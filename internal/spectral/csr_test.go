package spectral

import (
	"math/rand"
	"testing"

	"copmecs/internal/eigen"
	"copmecs/internal/lpa"
	"copmecs/internal/matrix"
	"copmecs/internal/netgen"
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

// lowSpectrum returns λ₂ and λ₃ of the Laplacian lap. λ₂ is the dense
// kernel's; λ₃ is the dense kernel's λ₂ of L + μ·v₂v₂ᵀ, where v₂ is the
// Fiedler vector and μ = 2·(largest degree) ≥ λ_max(L): the update lifts
// v₂'s eigenvalue above all the others and keeps the constant vector in the
// null space, so the second-smallest eigenvalue left is λ₃.
func lowSpectrum(lap *matrix.CSR) (l2, l3 float64, err error) {
	n := lap.Rows()
	dense := eigen.FiedlerOptions{DenseCutoff: n}
	l2, v2, err := eigen.Fiedler(lap, dense)
	if err != nil {
		return 0, 0, err
	}
	a, err := lap.DenseInto(make([]float64, n*n))
	if err != nil {
		return 0, 0, err
	}
	mu := 2 * lap.MaxAbs() // a Laplacian's largest entry is its largest degree
	lifted := make([]matrix.Triplet, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lifted = append(lifted, matrix.Triplet{Row: i, Col: j, Val: a[i*n+j] + mu*v2[i]*v2[j]})
		}
	}
	m, err := matrix.NewCSR(n, n, lifted)
	if err != nil {
		return 0, 0, err
	}
	l3, _, err = eigen.Fiedler(m, dense)
	return l2, l3, err
}

// TestPropertyDenseAndLanczosCutAlike: with DenseCutoff forced to either
// side of the dimension, the two eigensolvers hand sweepCutCSR vectors that
// round to the same side sets — same cut and, because eigen.Fiedler orients
// its result, the same side called A. Graphs whose λ₂ is nearly repeated
// ((λ₃−λ₂)/λ₂ < 1e-3) are skipped: there the Fiedler vector itself is not
// determined to the accuracy Lanczos stops at.
func TestPropertyDenseAndLanczosCutAlike(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	checked, checkedLarge := 0, 0
	for trial := 0; trial < 160; trial++ {
		// The last 10 graphs lie in (96, 384], the upper part of the
		// range the dense kernel serves by default.
		n := 8 + rng.Intn(72)
		if trial >= 150 {
			n = 97 + rng.Intn(288)
		}
		off, tgt, wts, edges := randCSRGraph(rng, n)
		lap, err := matrix.Laplacian(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		l2, l3, err := lowSpectrum(lap)
		if err != nil {
			t.Fatalf("trial %d n %d: spectrum: %v", trial, n, err)
		}
		if (l3-l2)/l2 < 1e-3 {
			continue
		}
		if checked++; n > 96 {
			checkedLarge++
		}
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
	t.Logf("%d of 160 graphs had a usable spectral gap, %d of the 10 above n = 96", checked, checkedLarge)
	if checked < 110 || checkedLarge < 8 {
		t.Fatalf("too few graphs had a usable spectral gap")
	}
}

// TestColdSparseComponentsCutAlike makes the same comparison on inputs the
// pipeline really cuts: every compressed component above 96 nodes of the
// benchmark's cold_sparse graphs (netgen, 2100 nodes, 10 080 edges, 6
// components, seeds 1–10: 16 components of 97–116 nodes), bisected as the
// pipeline bisects them.
func TestColdSparseComponentsCutAlike(t *testing.T) {
	large := 0
	for seed := int64(1); seed <= 10; seed++ {
		g, err := netgen.Generate(netgen.Config{Nodes: 2100, Edges: 10080, Components: 6, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		c := g.Compile()
		which := make([]int, len(c.Components()))
		for i := range which {
			which[i] = i
		}
		blocks, err := lpa.CompressComponents(c, lpa.Options{}, which)
		if err != nil {
			t.Fatal(err)
		}
		for ci, b := range blocks {
			n := len(b.NodeW)
			if n <= 96 {
				continue
			}
			large++
			denseA, _, err := BisectCSRInto(b.Off, b.Tgt, b.W, make([]int32, n), Options{Eigen: eigen.FiedlerOptions{DenseCutoff: n}})
			if err != nil {
				t.Fatalf("seed %d component %d: dense: %v", seed, ci, err)
			}
			lanA, _, err := BisectCSRInto(b.Off, b.Tgt, b.W, make([]int32, n), Options{Eigen: eigen.FiedlerOptions{DenseCutoff: 1}})
			if err != nil {
				t.Fatalf("seed %d component %d: lanczos: %v", seed, ci, err)
			}
			if !equalSides(denseA, lanA) {
				t.Errorf("seed %d component %d (n %d): dense A=%v, lanczos A=%v", seed, ci, n, denseA, lanA)
			}
		}
	}
	if large != 16 {
		t.Errorf("%d components above 96 nodes, want 16: the inputs changed", large)
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
