package eigen

import (
	"math"
	"math/rand"
	"testing"

	"copmecs/internal/matrix"
)

// matrixNorm is ‖l‖∞, the largest absolute row sum.
func matrixNorm(l *matrix.CSR) float64 {
	d := denseOf(l)
	var norm float64
	for i := 0; i < d.Rows(); i++ {
		var s float64
		for j := 0; j < d.Cols(); j++ {
			s += math.Abs(d.At(i, j))
		}
		norm = math.Max(norm, s)
	}
	return norm
}

func pathEdges(n int, w float64) []matrix.WeightedEdge {
	var es []matrix.WeightedEdge
	for i := 0; i+1 < n; i++ {
		es = append(es, matrix.WeightedEdge{U: i, V: i + 1, Weight: w})
	}
	return es
}

func cliqueEdges(lo, hi int, w float64) []matrix.WeightedEdge {
	var es []matrix.WeightedEdge
	for i := lo; i < hi; i++ {
		for j := i + 1; j < hi; j++ {
			es = append(es, matrix.WeightedEdge{U: i, V: j, Weight: w})
		}
	}
	return es
}

// poisonArena parks NaN-filled chunks in the arena class an n-dimensional
// dense solve draws from, so a kernel that reads anything it has not
// written returns NaN instead of silently depending on the previous solve.
func poisonArena(n int) {
	demand := n*n + 7*n
	ar := getArena(demand)
	x := ar.takeDirty(demand)
	for i := range x {
		x[i] = math.NaN()
	}
	putArena(ar)
}

// TestDenseFiedlerNumerics drives the dense kernel over the spectra that
// break single-eigenpair solvers — repeated λ₂, λ₂ a round-off away from λ₁,
// λ₂ = 0, the smallest possible dimensions, and weights at both ends of the
// float64 range — and holds every case to the same contract.
func TestDenseFiedlerNumerics(t *testing.T) {
	testFiedlerNumerics(t, func(l *matrix.CSR) (float64, matrix.Vector, error) { return fiedlerDense(l, nil) })
}

// TestLanczosFiedlerNumerics holds the Lanczos path to the dense kernel's
// contract on the same cases. Lanczos's breakdown and residual thresholds
// are absolute, so before it ran on the unit-scaled Laplacian small weights
// made it return a wrong pair without an error: on a unit path × 1e-13,
// 1e-150 or 1e-300 it gave λ₂ = 1.23e-13 (true 1.0956e-15 at 1e-13) with a
// vector at ⟨v, v_dense⟩ = 0.002.
func TestLanczosFiedlerNumerics(t *testing.T) {
	testFiedlerNumerics(t, func(l *matrix.CSR) (float64, matrix.Vector, error) {
		return Fiedler(l, FiedlerOptions{DenseCutoff: 1})
	})
}

// testFiedlerNumerics is the numerics contract of one Fiedler solver.
func testFiedlerNumerics(t *testing.T, solve func(*matrix.CSR) (float64, matrix.Vector, error)) {
	star := func(n int) []matrix.WeightedEdge {
		var es []matrix.WeightedEdge
		for i := 1; i < n; i++ {
			es = append(es, matrix.WeightedEdge{U: 0, V: i, Weight: 1})
		}
		return es
	}
	bridged := append(append(cliqueEdges(0, 6, 1), cliqueEdges(6, 12, 1)...),
		matrix.WeightedEdge{U: 2, V: 9, Weight: 1e-12})
	var wide []matrix.WeightedEdge
	for i, w := range []float64{1e-150, 1e150, 1e-100, 1e100, 1e-50, 1e50, 1, 1e150, 1e-150} {
		wide = append(wide, matrix.WeightedEdge{U: i, V: i + 1, Weight: w})
	}
	wide = append(wide, matrix.WeightedEdge{U: 0, V: 9, Weight: 1e150}, matrix.WeightedEdge{U: 3, V: 7, Weight: 1e-150})

	cases := []struct {
		name  string
		n     int
		edges []matrix.WeightedEdge
		// scale multiplies every weight for the kernel only: the oracle's
		// convergence threshold is absolute, so it sees the unscaled graph
		// and its λ₂ is scaled afterwards. 0 means 1.
		scale float64
	}{
		{name: "n=2", n: 2, edges: pathEdges(2, 3)},
		{name: "n=3", n: 3, edges: pathEdges(3, 0.25)},
		{name: "path", n: 40, edges: pathEdges(40, 1)},
		{name: "star (λ₂ repeated n−2 times)", n: 17, edges: star(17)},
		{name: "clique (λ₂ repeated n−1 times)", n: 12, edges: cliqueEdges(0, 12, 2.5)},
		{name: "two cliques, 1e-12 bridge", n: 12, edges: bridged},
		{name: "disconnected block (λ₂ = 0)", n: 11, edges: append(pathEdges(5, 1), cliqueEdges(5, 11, 3)...)},
		{name: "three components (λ₂ = λ₃ = 0)", n: 9, edges: append(append(cliqueEdges(0, 3, 1), cliqueEdges(3, 6, 1)...), cliqueEdges(6, 9, 1)...)},
		{name: "no edges", n: 5},
		{name: "weights 1e-150…1e150 in one graph", n: 10, edges: wide},
		{name: "path × 1e150", n: 30, edges: pathEdges(30, 1), scale: 1e150},
		{name: "path × 1e-150", n: 30, edges: pathEdges(30, 1), scale: 1e-150},
		{name: "clique × 1e-300", n: 8, edges: cliqueEdges(0, 8, 1), scale: 1e-300},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			scale := tc.scale
			if scale == 0 {
				scale = 1
			}
			unscaled, err := matrix.Laplacian(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			scaled := make([]matrix.WeightedEdge, len(tc.edges))
			for i, e := range tc.edges {
				scaled[i] = matrix.WeightedEdge{U: e.U, V: e.V, Weight: e.Weight * scale}
			}
			l, err := matrix.Laplacian(tc.n, scaled)
			if err != nil {
				t.Fatal(err)
			}
			norm := matrixNorm(l)
			sqrtN := math.Sqrt(float64(tc.n))

			lam, vec, err := solve(l)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			for i, x := range vec {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("vec[%d] = %v", i, x)
				}
			}
			if math.IsNaN(lam) || lam < 0 {
				t.Fatalf("λ₂ = %v", lam)
			}
			if d := math.Abs(vec.Norm() - 1); d > 1e-12 {
				t.Errorf("|‖v‖ − 1| = %g", d)
			}
			var sum float64
			for _, x := range vec {
				sum += x
			}
			if math.Abs(sum) > 1e-12*sqrtN {
				t.Errorf("|⟨v, 1⟩| = %g, want ≤ %g", math.Abs(sum), 1e-12*sqrtN)
			}
			res := mulVec(l, vec)
			if err := res.Axpy(-lam, vec); err != nil {
				t.Fatal(err)
			}
			if r := res.Norm(); r > 1e-9*norm {
				t.Errorf("‖Lv − λ₂v‖ = %g, want ≤ %g", r, 1e-9*norm)
			}
			oracle, _ := oracleFiedler(t, unscaled)
			if d := math.Abs(lam - oracle*scale); d > 1e-9*norm {
				t.Errorf("λ₂ = %g, oracle %g (off by %g, want ≤ %g)", lam, oracle*scale, d, 1e-9*norm)
			}

			// Determinism: the same input gives the same bits on the next
			// call, and again after the arena it draws from held garbage.
			for _, dirty := range []bool{false, true} {
				if dirty {
					poisonArena(tc.n)
				}
				lam2, vec2, err := solve(l)
				if err != nil {
					t.Fatalf("repeat (dirty=%v): %v", dirty, err)
				}
				if math.Float64bits(lam2) != math.Float64bits(lam) {
					t.Errorf("repeat (dirty=%v): λ₂ %x vs %x", dirty, math.Float64bits(lam2), math.Float64bits(lam))
				}
				for i := range vec {
					if math.Float64bits(vec2[i]) != math.Float64bits(vec[i]) {
						t.Fatalf("repeat (dirty=%v): vec[%d] %v vs %v", dirty, i, vec2[i], vec[i])
					}
				}
			}
		})
	}
}

// TestFiedlerOrientation: the returned vector's largest-magnitude entry is
// positive on both solver paths, so neither the reflector signs nor the
// Lanczos start vector decides which side is called A.
func TestFiedlerOrientation(t *testing.T) {
	// Random weights: a symmetric graph (a path, say) has an antisymmetric
	// Fiedler vector whose two extreme entries tie up to round-off.
	l := randLaplacian(rand.New(rand.NewSource(11)), 130)
	_, cold, err := Fiedler(l, FiedlerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]FiedlerOptions{
		"dense":   {DenseCutoff: 130},
		"lanczos": {DenseCutoff: 1},
	} {
		_, vec, err := Fiedler(l, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		big := vec.MaxAbs()
		if big <= 0 {
			t.Fatalf("%s: zero vector", name)
		}
		for _, x := range vec {
			if x == -big { //vet:ignore floatcmp MaxAbs returns the magnitude of one of the entries, so equality is exact
				t.Errorf("%s: largest-magnitude entry %v is negative", name, x)
			}
		}
		dot, err := vec.Dot(cold)
		if err != nil {
			t.Fatal(err)
		}
		if dot < 0.999 {
			t.Errorf("%s: ⟨v, cold⟩ = %v, want ≈ +1", name, dot)
		}
	}
}

// TestLanczosFiedlerAbove384 takes the Lanczos path where the pipeline
// takes it — Fiedler at default options, n ∈ (384, 640] — on the inputs
// that break Krylov solvers: λ₂ a relative 1e-3 or 1e-6 below λ₃, spectra
// packed around λ₂ (a star with leaf weights 1 + i/n, a clique with weights
// 1 + U(0, 0.01)), a path whose gap the default budget cannot resolve, and
// weights scaled by 1e±150 and 1e±300. Each case either fails with an
// error, or returns a unit vector ⟂ 1 with residual ≤ 1e-9·‖L‖, the dense
// kernel's λ₂ (DenseCutoff: n; the kernel is held to the Jacobi oracle) and
// the dense kernel's side set {i : vᵢ > 0}. A silently different side
// fails. The side is compared only where λ₂ is simple: where it is repeated
// (the unit star and clique, the symmetric ring), every vector of its
// eigenspace is a Fiedler vector, two correct solvers split differently,
// and those cases are held to the rest of the contract.
func TestLanczosFiedlerAbove384(t *testing.T) {
	// ring returns three copies of one random 134-node cluster joined in a
	// ring by 1e-2 bridges, the last one heavier by a factor 1 + d. With
	// d = 0 the ring's rotation makes λ₂ = λ₃; d splits them.
	const c = 134
	ring := func(d float64) []matrix.WeightedEdge {
		var es []matrix.WeightedEdge
		for lo := 0; lo < 3*c; lo += c {
			rng := rand.New(rand.NewSource(7))
			for i := 1; i < c; i++ {
				es = append(es, matrix.WeightedEdge{U: lo + rng.Intn(i), V: lo + i, Weight: 1 + rng.Float64()})
			}
			for k := 0; k < 4*c; k++ {
				if u, v := lo+rng.Intn(c), lo+rng.Intn(c); u != v {
					es = append(es, matrix.WeightedEdge{U: u, V: v, Weight: 1 + rng.Float64()})
				}
			}
		}
		return append(es, matrix.WeightedEdge{U: 0, V: c, Weight: 1e-2},
			matrix.WeightedEdge{U: c, V: 2 * c, Weight: 1e-2},
			matrix.WeightedEdge{U: 2 * c, V: 0, Weight: 1e-2 * (1 + d)})
	}
	star := func(n int, w func(i int) float64) []matrix.WeightedEdge {
		var es []matrix.WeightedEdge
		for i := 1; i < n; i++ {
			es = append(es, matrix.WeightedEdge{U: 0, V: i, Weight: w(i)})
		}
		return es
	}
	clique := func(n int, w func() float64) []matrix.WeightedEdge {
		var es []matrix.WeightedEdge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				es = append(es, matrix.WeightedEdge{U: i, V: j, Weight: w()})
			}
		}
		return es
	}
	rng := rand.New(rand.NewSource(5))
	var random []matrix.WeightedEdge
	for i := 1; i < 512; i++ {
		random = append(random, matrix.WeightedEdge{U: rng.Intn(i), V: i, Weight: rng.Float64()*5 + 0.5})
	}
	for k := 0; k < 512; k++ {
		if u, v := rng.Intn(512), rng.Intn(512); u != v {
			random = append(random, matrix.WeightedEdge{U: u, V: v, Weight: rng.Float64()*5 + 0.5})
		}
	}

	cases := []struct {
		name     string
		n        int
		edges    []matrix.WeightedEdge
		scale    float64 // multiplies every weight; 0 means 1
		repeated bool    // λ₂ has multiplicity > 1: the side is not compared
	}{
		{name: "λ₂ ≈ λ₃ (ring, d = 1e-3)", n: 3 * c, edges: ring(1e-3)},
		{name: "λ₂ ≈ λ₃ (ring, d = 1e-6)", n: 3 * c, edges: ring(1e-6)},
		{name: "λ₂ = λ₃ (symmetric ring)", n: 3 * c, edges: ring(0), repeated: true},
		{name: "star", n: 400, edges: star(400, func(int) float64 { return 1 }), repeated: true},
		{name: "star, leaf weights 1 + i/n", n: 400, edges: star(400, func(i int) float64 { return 1 + float64(i)/400 })},
		{name: "clique", n: 400, edges: clique(400, func() float64 { return 1 }), repeated: true},
		{name: "clique, weights 1 + U(0, 0.01)", n: 400, edges: clique(400, func() float64 { return 1 + 0.01*rng.Float64() })},
		{name: "path", n: 600, edges: pathEdges(600, 1)},
		{name: "random × 1e-300", n: 512, edges: random, scale: 1e-300},
		{name: "random × 1e-150", n: 512, edges: random, scale: 1e-150},
		{name: "random × 1e150", n: 512, edges: random, scale: 1e150},
		{name: "random × 1e300", n: 512, edges: random, scale: 1e300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			scale := tc.scale
			if scale == 0 {
				scale = 1
			}
			// The contract is checked on the unscaled Laplacian, with λ₂
			// divided by the scale: a residual of weights near 1e300 would
			// overflow ‖·‖.
			unscaled, err := matrix.Laplacian(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			scaled := make([]matrix.WeightedEdge, len(tc.edges))
			for i, e := range tc.edges {
				scaled[i] = matrix.WeightedEdge{U: e.U, V: e.V, Weight: e.Weight * scale}
			}
			l, err := matrix.Laplacian(tc.n, scaled)
			if err != nil {
				t.Fatal(err)
			}
			lam, vec, err := Fiedler(l, FiedlerOptions{})
			if err != nil {
				t.Logf("lanczos fails loudly: %v", err)
				return
			}
			denseLam, denseVec, err := Fiedler(l, FiedlerOptions{DenseCutoff: tc.n})
			if err != nil {
				t.Fatalf("dense: %v", err)
			}
			norm := matrixNorm(unscaled)
			if d := math.Abs(vec.Norm() - 1); d > 1e-12 {
				t.Errorf("|‖v‖ − 1| = %g", d)
			}
			var sum float64
			for _, x := range vec {
				sum += x
			}
			if bound := 1e-12 * math.Sqrt(float64(tc.n)); math.Abs(sum) > bound {
				t.Errorf("|⟨v, 1⟩| = %g, want ≤ %g", math.Abs(sum), bound)
			}
			res := mulVec(unscaled, vec)
			if err := res.Axpy(-lam/scale, vec); err != nil {
				t.Fatal(err)
			}
			if r := res.Norm(); r > 1e-9*norm {
				t.Errorf("‖Lv − λ₂v‖ = %g, want ≤ %g", r, 1e-9*norm)
			}
			if d := math.Abs(lam-denseLam) / scale; d > 1e-9*norm {
				t.Errorf("λ₂ = %g, dense kernel %g", lam, denseLam)
			}
			if tc.repeated {
				return
			}
			differ := 0
			for i := range vec {
				if (vec[i] > 0) != (denseVec[i] > 0) {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d nodes on a different side than the dense kernel's", differ, tc.n)
			}
		})
	}
}
