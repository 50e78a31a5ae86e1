package eigen

import (
	"fmt"
	"math/rand"

	"copmecs/internal/matrix"
	"copmecs/internal/numeric"
)

// LanczosOptions tunes the Lanczos iteration. The zero value picks sensible
// defaults.
type LanczosOptions struct {
	// MaxIter caps the Krylov dimension; 0 means min(n, 2k+80).
	MaxIter int
	// Tol is the residual tolerance for accepting a Ritz pair; 0 means 1e-8.
	Tol float64
	// Seed drives the deterministic starting vector.
	Seed int64
	// IterOut, when non-nil, is incremented by the number of Lanczos
	// iterations performed (the dimension of the tridiagonal T), letting
	// callers account for the work a skipped solve saves.
	IterOut *int
}

// Pair is one eigenpair.
type Pair struct {
	Value  float64
	Vector matrix.Vector
}

// Lanczos computes the k smallest eigenpairs of the symmetric matrix a
// using the Lanczos iteration with full reorthogonalisation. The returned
// pairs are ascending by eigenvalue and the vectors have unit norm.
//
// The directions in deflate are projected out of every product and every
// basis vector, so the iteration sees a restricted to their orthogonal
// complement: with a Laplacian's constant null vector deflated, λ₂ (the
// Fiedler value) is the smallest eigenvalue left. Each direction is
// normalised; a zero direction is ignored.
//
// Full reorthogonalisation costs O(m²·n) but keeps the basis orthogonal in
// floating point, which is what makes the small end of a graph Laplacian's
// spectrum (the paper's target, Theorem 1) reliably reachable without
// shift-invert machinery.
func Lanczos(a *matrix.CSR, k int, opts LanczosOptions, deflate ...matrix.Vector) ([]Pair, error) {
	n := a.Rows()
	if n != a.Cols() {
		return nil, fmt.Errorf("lanczos %dx%d: %w", a.Rows(), a.Cols(), matrix.ErrDimension)
	}
	if n == 0 {
		return nil, ErrEmpty
	}
	if k <= 0 {
		return nil, fmt.Errorf("lanczos: k = %d, want ≥ 1", k)
	}
	if k > n {
		k = n
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 2*k + 80
	}
	if maxIter > n {
		maxIter = n
	}
	if maxIter < k {
		maxIter = k
	}
	tol := opts.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	rng := rand.New(rand.NewSource(opts.Seed + 0x5eed))

	// All internal vectors and the Ritz workspace come from a pooled arena;
	// only the returned eigenvectors are heap-allocated (they escape, arena
	// memory must not). The hint is the worst-case float demand — basis and
	// work vectors plus the Ritz decomposition — so the arena comes from the
	// matching size-class pool.
	ar := getArena(n*(maxIter+3+len(deflate)) + maxIter*(maxIter+2))
	defer putArena(ar)

	var (
		basis  []matrix.Vector // orthonormal Lanczos vectors v₁..v_m
		alphas []float64       // diagonal of T
		betas  []float64       // sub-diagonal of T (betas[j] couples v_j, v_{j+1})
	)

	var defl []matrix.Vector // deflate, normalised
	for _, dir := range deflate {
		if len(dir) != n {
			return nil, fmt.Errorf("lanczos deflate %d×%d: %w", len(dir), n, matrix.ErrDimension)
		}
		u := matrix.Vector(ar.takeDirty(n))
		copy(u, dir)
		if numeric.Zero(u.Normalize()) {
			continue
		}
		defl = append(defl, u)
	}
	// mul writes P·a·P·in into out, where P projects out span(defl).
	scratch := matrix.Vector(ar.takeDirty(n)) // mul overwrites it whole
	mul := func(in, out matrix.Vector) error {
		copy(scratch, in)
		if err := projectOut(scratch, defl); err != nil {
			return err
		}
		a.MulVecRange(scratch, out, 0, n)
		return projectOut(out, defl)
	}

	newDirection := func() (matrix.Vector, error) {
		// Random vector orthogonalised against the existing basis.
		for attempt := 0; attempt < 8; attempt++ {
			v := ar.vec(n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			// Every basis vector stays inside the deflated complement, so
			// the deflated eigenpairs can never re-enter the Krylov space.
			if err := projectOut(v, defl); err != nil {
				return nil, err
			}
			if err := projectOut(v, basis); err != nil {
				return nil, err
			}
			if v.Normalize() > 1e-10 {
				return v, nil
			}
		}
		return nil, fmt.Errorf("lanczos: cannot extend basis beyond %d: %w", len(basis), ErrNoConvergence)
	}

	v, err := newDirection()
	if err != nil {
		return nil, err
	}
	basis = append(basis, v)
	w := ar.vec(n)

	for len(basis) <= maxIter {
		j := len(basis) - 1
		if err := mul(basis[j], w); err != nil {
			return nil, err
		}
		alpha, err := w.Dot(basis[j])
		if err != nil {
			return nil, err
		}
		alphas = append(alphas, alpha)
		if len(basis) == maxIter {
			break
		}
		// w ← w − α·v_j − β_{j−1}·v_{j−1}, then full reorthogonalisation.
		if err := w.Axpy(-alpha, basis[j]); err != nil {
			return nil, err
		}
		if j > 0 {
			if err := w.Axpy(-betas[j-1], basis[j-1]); err != nil {
				return nil, err
			}
		}
		if err := projectOut(w, basis); err != nil {
			return nil, err
		}
		// Keep w exactly inside the deflated complement: dividing by a small
		// β below would otherwise amplify round-off components along the
		// deflated directions back into the basis.
		if err := projectOut(w, defl); err != nil {
			return nil, err
		}
		beta := w.Norm()
		if beta < 1e-12 {
			// Invariant subspace: either we are done, or we restart in the
			// orthogonal complement to keep gathering eigenpairs.
			if len(basis) >= k && len(basis) >= maxIter/2 {
				break
			}
			nv, err := newDirection()
			if err != nil {
				break // complement exhausted; T is complete
			}
			betas = append(betas, 0)
			basis = append(basis, nv)
			w = ar.vec(n)
			continue
		}
		betas = append(betas, beta)
		next := ar.vec(n)
		copy(next, w)
		next.Scale(1 / beta)
		basis = append(basis, next)
	}

	m := len(alphas)
	if opts.IterOut != nil {
		*opts.IterOut += m
	}
	if m == 0 {
		return nil, ErrNoConvergence
	}
	// Eigen-decompose T in the Lanczos basis.
	d := ar.take(m)
	copy(d, alphas)
	e := ar.take(m)
	copy(e, betas)
	s := make([][]float64, m)
	for i := range s {
		s[i] = ar.take(m)
		s[i][i] = 1
	}
	if err := SymTridiagEigen(d, e, s); err != nil {
		return nil, fmt.Errorf("lanczos ritz step: %w", err)
	}

	if k > m {
		k = m
	}
	pairs := make([]Pair, 0, k)
	for i := 0; i < k; i++ {
		// Ritz vector x = Σ_j s[j][i]·v_j.
		x := make(matrix.Vector, n)
		for j := 0; j < m; j++ {
			if err := x.Axpy(s[j][i], basis[j][:n]); err != nil {
				return nil, err
			}
		}
		x.Normalize()
		// Residual ‖A·x − θ·x‖ as the convergence certificate.
		if err := mul(x, w); err != nil {
			return nil, err
		}
		if err := w.Axpy(-d[i], x); err != nil {
			return nil, err
		}
		if res := w.Norm(); res > tol*(1+absf(d[i])) {
			return nil, fmt.Errorf("lanczos pair %d residual %.3g: %w", i, res, ErrNoConvergence)
		}
		pairs = append(pairs, Pair{Value: d[i], Vector: x})
	}
	return pairs, nil
}

// projectOut removes from v its component along each unit vector of us, in
// order.
func projectOut(v matrix.Vector, us []matrix.Vector) error {
	for _, u := range us {
		if err := v.ProjectOut(u); err != nil {
			return err
		}
	}
	return nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
