package eigen

import (
	"fmt"
	"math"
	"math/rand"

	"copmecs/internal/matrix"
	"copmecs/internal/numeric"
)

// lanczosTol is the residual tolerance, relative to 1 + |λ₂| in the scaled
// units, for accepting the Ritz pair. The Fiedler vector only drives a sign
// split (and a sweep-cut refinement downstream), so residuals far below the
// spectral gap are unnecessary.
const lanczosTol = 1e-6

// lanczosFiedler returns the Fiedler pair of the Laplacian l by the Lanczos
// iteration with full reorthogonalisation, run on l scaled by unitScale so
// that its absolute breakdown and residual thresholds are relative to ‖l‖.
// The constant vector is projected out of every product and every basis
// vector, so the iteration sees l on 1's complement, where λ₂ is the
// smallest eigenvalue. iterOut, when non-nil, is incremented by the Krylov
// dimension m.
//
// Full reorthogonalisation costs O(m²·n) but keeps the basis orthogonal in
// floating point, which is what makes the small end of a graph Laplacian's
// spectrum (the paper's target, Theorem 1) reliably reachable without
// shift-invert machinery. The Ritz step is the dense kernel's: Sturm
// bisection for the smallest eigenvalue of the tridiagonal T_m and inverse
// iteration for its eigenvector s, after which x = V·s is formed once.
func lanczosFiedler(l *matrix.CSR, iterOut *int) (float64, matrix.Vector, error) {
	n := l.Rows()
	scale := unitScale(l)
	a := l.Scaled(scale)
	// λ₂ sits at the bottom of the deflated spectrum; give the basis room
	// to resolve it on graphs with weak spectral gaps.
	maxIter := min(4*int(math.Sqrt(float64(n)))+150, n)
	rng := rand.New(rand.NewSource(0x5eed))

	// The basis, the work vector and the Ritz workspace come from a pooled
	// arena, every buffer written whole before it is read; only the
	// returned vector is heap-allocated. The hint is the total demand, so
	// the arena comes from the matching size-class pool.
	ar := getArena(n*(maxIter+1) + 6*maxIter)
	defer putArena(ar)
	vec := func() matrix.Vector { return matrix.Vector(ar.takeDirty(n)) }
	// mul writes P·a·in into out, where P projects out the constant vector.
	mul := func(in, out matrix.Vector) {
		a.MulVecRange(in, out, 0, n)
		deflate(out)
	}

	basis := make([]matrix.Vector, 0, maxIter) // orthonormal v₁..v_m
	alphas := ar.takeDirty(maxIter)[:0]        // diagonal of T
	betas := ar.takeDirty(maxIter)[:0]         // betas[j] couples v_j, v_{j+1}
	newDirection := func() (matrix.Vector, error) {
		// Random vector orthogonalised against 1 and the existing basis.
		for attempt := 0; attempt < 8; attempt++ {
			v := vec()
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			deflate(v)
			if err := projectOut(v, basis); err != nil {
				return nil, err
			}
			if v.Normalize() > 1e-10 {
				return v, nil
			}
		}
		return nil, fmt.Errorf("fiedler lanczos: cannot extend basis beyond %d: %w", len(basis), ErrNoConvergence)
	}

	v, err := newDirection()
	if err != nil {
		return 0, nil, err
	}
	basis = append(basis, v)
	w := vec()
	for {
		j := len(basis) - 1
		mul(basis[j], w)
		alpha, err := w.Dot(basis[j])
		if err != nil {
			return 0, nil, err
		}
		alphas = append(alphas, alpha)
		if len(basis) == maxIter {
			break
		}
		// w ← w − α·v_j − β_{j−1}·v_{j−1}, then full reorthogonalisation.
		if err := w.Axpy(-alpha, basis[j]); err != nil {
			return 0, nil, err
		}
		if j > 0 {
			if err := w.Axpy(-betas[j-1], basis[j-1]); err != nil {
				return 0, nil, err
			}
		}
		if err := projectOut(w, basis); err != nil {
			return 0, nil, err
		}
		// Keep w exactly inside 1's complement: dividing by a small β below
		// would otherwise amplify round-off along 1 back into the basis.
		deflate(w)
		beta := w.Norm()
		if beta < 1e-12 {
			// Invariant subspace: either we are done, or we restart in the
			// orthogonal complement to keep gathering eigenpairs.
			if len(basis) >= maxIter/2 {
				break
			}
			nv, err := newDirection()
			if err != nil {
				break // complement exhausted; T is complete
			}
			betas = append(betas, 0)
			basis = append(basis, nv)
			continue
		}
		betas = append(betas, beta)
		next := vec()
		copy(next, w)
		next.Scale(1 / beta)
		basis = append(basis, next)
	}

	m := len(alphas)
	if iterOut != nil {
		*iterOut += m
	}
	// T_m = (alphas, betas): its smallest eigenvalue by Sturm bisection and
	// its eigenvector s by inverse iteration. solveShiftedTridiag reads one
	// coupling past the last row, so betas gets a zero there.
	e := append(betas, 0)
	theta, tnorm := smallestEigenvalue(alphas, e)
	s := ar.takeDirty(m)
	if numeric.Zero(tnorm) {
		// T_m is zero to the breakdown threshold (an edgeless block): every
		// vector is an eigenvector for 0, and inverse iteration would have
		// no pivot to work with. The residual test below still applies.
		theta = 0
		clear(s)
		s[0] = 1
	} else if err := inverseIterate(alphas, e, theta, ulp*tnorm, s, ar.takeDirty(m), ar.takeDirty(m), ar.takeDirty(m)); err != nil {
		return 0, nil, fmt.Errorf("fiedler lanczos: %w", err)
	}

	// Ritz vector x = Σ_j s_j·v_j, re-deflated (round-off hygiene) and
	// normalised; its residual ‖a·x − θ·x‖ is the convergence certificate.
	x := make(matrix.Vector, n)
	for j, sj := range s {
		if err := x.Axpy(sj, basis[j]); err != nil {
			return 0, nil, err
		}
	}
	deflate(x)
	if numeric.Zero(x.Normalize()) {
		return 0, nil, fmt.Errorf("fiedler lanczos: degenerate vector: %w", ErrNoConvergence)
	}
	mul(x, w)
	if err := w.Axpy(-theta, x); err != nil {
		return 0, nil, err
	}
	if res := w.Norm(); res > lanczosTol*(1+math.Abs(theta)) {
		return 0, nil, fmt.Errorf("fiedler lanczos: residual %.3g: %w", res, ErrNoConvergence)
	}
	if theta < 0 && theta > -1e-9 {
		theta = 0 // clamp tiny negative round-off; L is PSD
	}
	return theta / scale, x, nil
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
