package eigen

import (
	"fmt"
	"math"

	"copmecs/internal/matrix"
	"copmecs/internal/numeric"
)

// ulp is the float64 unit round-off 2⁻⁵².
const ulp = 1.0 / (1 << 52)

// deflateShift is the eigenvalue the constant vector is moved to, in units
// of the Laplacian's largest entry after scaling (see fiedlerDense). λ₂ of
// an n-node Laplacian is at most n/(n−1) times its smallest degree, i.e.
// ≤ 2 in those units, so 4 keeps the deflated direction at least 2 away
// from the eigenvalue the inverse iteration targets — for every n ≥ 2.
const deflateShift = 4

// invIterMax bounds the inverse-iteration steps per start vector. A start
// with any component along the target reaches round-off growth in two.
const invIterMax = 6

// invIterStarts are the golden-ratio and √2 low-discrepancy sequences that
// generate the two fixed start vectors: no symmetry, so neither is
// orthogonal to the eigenvectors of the structured tridiagonals that
// stars, cliques and paths reduce to, and the second is not a multiple of
// the first.
var invIterStarts = [...]float64{0.6180339887498949, 0.4142135623730951}

// fiedlerDense is the one dense Fiedler kernel: it computes the
// second-smallest eigenpair of the Laplacian l and nothing else.
//
//  1. l is scattered into an arena-backed n×n buffer, scaled by a power of
//     two so its largest entry lies in [½, 1) (no square below can overflow,
//     whatever the weights), and the constant vector is deflated by adding
//     deflateShift/n to every entry: L + μ·11ᵀ/n has L's eigenpairs on
//     1's complement unchanged and the constant vector at μ, so the Fiedler
//     pair is its *smallest* eigenpair — by construction never the constant
//     vector, also on a disconnected block where λ₂ = λ₁ = 0.
//  2. Householder reflectors reduce it to a tridiagonal T (EISPACK tred1,
//     row-oriented over the lower triangle). The reflectors stay in place
//     in the rows they annihilated; Q is never formed. ≈ 4/3·n³ flops, the
//     only cubic step.
//  3. Bisection on the Sturm count gives T's smallest eigenvalue σ — λ₂ in
//     the scaled units — to within ulp·‖T‖ (see smallestEigenvalue); none
//     of the other n−1 eigenvalues is computed.
//  4. Inverse iteration on T − σI (tridiagonal LU with partial pivoting,
//     zero pivots replaced by ulp·‖T‖) from a fixed start vector gives T's
//     eigenvector; a start that fails to grow is replaced once by a second
//     fixed vector, after which the solve fails with ErrNoConvergence.
//  5. The reflectors are applied to that single vector, its mean is removed
//     (round-off hygiene: the result is orthogonal to 1 to working
//     precision) and it is normalised; λ₂ is its Rayleigh quotient on l.
//
// The result depends only on l's entries: every buffer is written before it
// is read, so a recycled arena cannot leak into it, and two calls return
// the same bits. With vecBuf set the returned vector is backed by the
// caller's buffer (see FiedlerOptions.VecBuf); arena memory never leaves
// the call.
func fiedlerDense(l *matrix.CSR, vecBuf *[]float64) (float64, matrix.Vector, error) {
	n := l.Rows()
	// One take for the matrix and the seven n-vectors: the arena's chunk is
	// then exactly the size its class was picked by.
	ar := getArena(n*n + 7*n)
	defer putArena(ar)
	buf := ar.takeDirty(n*n + 7*n)
	a, buf := buf[:n*n], buf[n*n:]
	vec := func() []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}

	d, e, hh, work := vec(), vec(), vec(), vec()
	if err := laplacianTridiag(l, a, d, e, hh, work); err != nil {
		return 0, nil, fmt.Errorf("fiedler dense: %w", err)
	}
	// ‖T‖∞ also sizes inverse iteration's pivot floor and growth test.
	sigma, tnorm := smallestEigenvalue(d, e)

	z, p1, p2 := vec(), vec(), vec()
	if err := inverseIterate(d, e, sigma, ulp*tnorm, z, p1, p2, work); err != nil {
		return 0, nil, fmt.Errorf("fiedler dense: %w", err)
	}

	// v = Q·z with Q = H_{n−1}⋯H₂, so H₂ is applied first.
	for i := 2; i < n; i++ {
		h := hh[i]
		if h == 0 { //vet:ignore floatcmp exact-zero marker written by tridiagonalize for rows that needed no reflector
			continue
		}
		u, zi := a[i*n:i*n+i], z[:i]
		var s float64
		for k, uk := range u {
			s += uk * zi[k]
		}
		s /= h
		for k, uk := range u {
			zi[k] -= s * uk
		}
	}

	var out matrix.Vector
	if vecBuf != nil {
		if cap(*vecBuf) < n {
			*vecBuf = make([]float64, n)
		}
		out = matrix.Vector((*vecBuf)[:n])
	} else {
		out = make(matrix.Vector, n)
	}
	copy(out, z)
	deflate(out)
	if numeric.Zero(out.Normalize()) {
		return 0, nil, fmt.Errorf("fiedler dense: degenerate vector: %w", ErrNoConvergence)
	}
	// λ₂ is reported as the Rayleigh quotient vᵀLv on l itself, not T's
	// eigenvalue mapped back: it is the value that belongs to the returned
	// vector, and it is exactly 0 where the cut is free (no edges) and
	// round-off-squared small on a disconnected block.
	lv := matrix.Vector(work)
	l.MulVecRange(out, lv, 0, n)
	var rayleigh float64
	for i, x := range out {
		rayleigh += x * lv[i]
	}
	if rayleigh < 0 {
		rayleigh = 0 // round-off; L is positive semi-definite
	}
	return rayleigh, out, nil
}

// laplacianTridiag is steps 1–2 of fiedlerDense: it scatters l into the n×n
// buffer a scaled by unitScale and shifted by deflateShift/n, then reduces
// it to the tridiagonal (d, e), the reflectors left in a and hh (see
// tridiagonalize). p is length-n scratch.
func laplacianTridiag(l *matrix.CSR, a, d, e, hh, p []float64) error {
	n := len(d)
	if _, err := l.DenseInto(a); err != nil {
		return err
	}
	scale, shift := unitScale(l), deflateShift/float64(n)
	for i, x := range a {
		a[i] = x*scale + shift
	}
	tridiagonalize(a, n, d, e, hh, p)
	return nil
}

// safmin is the smallest normal float64, LAPACK's safe minimum.
const safmin = 0x1p-1022

// smallestEigenvalue returns the smallest eigenvalue of the symmetric
// tridiagonal T with diagonal d and e[i] coupling rows i and i+1 (e[n−1],
// if present, is not read), to within ulp·‖T‖∞, and ‖T‖∞ itself. It bisects
// T's Gershgorin interval on the Sturm count — the method of LAPACK's
// dstebz, for one eigenvalue: about 53 steps of at most n divisions each,
// where QL would rotate through all n eigenvalues.
func smallestEigenvalue(d, e []float64) (lambda, tnorm float64) {
	n := len(d)
	lo, hi := math.Inf(1), math.Inf(-1)
	var e2max float64
	for i, di := range d {
		var r float64 // row i's Gershgorin radius
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i+1 < n {
			r += math.Abs(e[i])
			e2max = max(e2max, e[i]*e[i])
		}
		lo, hi = min(lo, di-r), max(hi, di+r)
		tnorm = max(tnorm, math.Abs(di)+r)
	}
	// A pivot below pivmin counts as negative; sizing it by the largest e²
	// keeps every e²/pivot finite (dstebz's choice). The padding keeps the
	// count at lo at 0 and at hi at n through the round-off of the ends.
	pivmin := safmin * max(1, e2max)
	pad := 2 * (float64(n)*ulp*tnorm + pivmin)
	lo, hi = lo-pad, hi+pad
	for hi-lo > ulp*tnorm {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // the interval is down to adjacent floats
		}
		if eigenvalueBelow(d, e, mid, pivmin) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo + (hi-lo)/2, tnorm
}

// eigenvalueBelow reports whether the tridiagonal (d, e) has an eigenvalue
// below x: whether the LDLᵀ factorisation of T − xI has a negative pivot
// (a nonzero Sturm count), stopping at the first. A pivot smaller in
// magnitude than pivmin counts as negative before its sign is read
// (dstebz's rule: it stands in for an exact zero).
func eigenvalueBelow(d, e []float64, x, pivmin float64) bool {
	var q float64
	for i, di := range d {
		if i == 0 {
			q = di - x
		} else {
			q = di - x - e[i-1]*e[i-1]/q
		}
		if q < pivmin {
			return true // negative, or small enough to count as negative
		}
	}
	return false
}

// tridiagonalize reduces the symmetric n×n row-major matrix a (lower
// triangle read and overwritten) to tridiagonal form by Householder
// reflections, last row first. On return d is the diagonal, e[i] couples
// rows i and i+1 (e[n−1] = 0), and for each row i ≥ 2 that needed a
// reflector H_i = I − u·uᵀ/h, u is left in a[i][0..i−1] and h in hh[i];
// hh[i] = 0 marks rows that were already tridiagonal. p is length-n scratch.
func tridiagonalize(a []float64, n int, d, e, hh, p []float64) {
	e[n-1] = 0
	hh[0] = 0
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		u := a[i*n : i*n+i]
		var h float64
		for _, x := range u[:l] {
			h += x * x
		}
		d[i] = a[i*n+i]
		hh[i] = 0
		if h == 0 { //vet:ignore floatcmp exact zero means nothing left of the sub-diagonal to annihilate (entries whose squares underflow are below ulp·‖a‖ by 150 orders and are dropped)
			e[l] = u[l]
			continue
		}
		f := u[l]
		h += f * f
		g := -math.Copysign(math.Sqrt(h), f)
		e[l] = g
		h -= f * g // = uᵀu/2 once u[l] = f − g
		u[l] = f - g
		hh[i] = h

		// p ← A·u/h over the leading i×i block, walking only the lower
		// triangle by rows so every access is contiguous.
		q := p[:i]
		for j := range q {
			q[j] = 0
		}
		for j := 0; j < i; j++ {
			row := a[j*n : j*n+j]
			uj := u[j]
			qr := q[:len(row)]
			ur := u[:len(row)]
			var s float64
			for k, x := range row {
				s += x * ur[k]
				qr[k] += x * uj
			}
			q[j] += s + a[j*n+j]*uj
		}
		var f2 float64
		for j := range q {
			q[j] /= h
			f2 += q[j] * u[j]
		}
		// q ← p − (uᵀp/2h)·u, then A ← A − u·qᵀ − q·uᵀ.
		k2 := f2 / (h + h)
		for j := range q {
			q[j] -= k2 * u[j]
		}
		for j := 0; j < i; j++ {
			row := a[j*n : j*n+j+1]
			uj, qj := u[j], q[j]
			qr := q[:len(row)]
			ur := u[:len(row)]
			for k := range row {
				row[k] -= uj*qr[k] + qj*ur[k]
			}
		}
	}
	d[0] = a[0]
}

// inverseIterate writes into z the unit eigenvector of the symmetric
// tridiagonal (d, e) for its computed eigenvalue sigma. pivot is the
// magnitude a zero pivot is replaced by; p1, p2, p3 are length-n scratch.
func inverseIterate(d, e []float64, sigma, pivot float64, z, p1, p2, p3 []float64) error {
	n := len(d)
	// A unit iterate grown by g has residual ‖(T−σI)z‖ = 1/g, so this is
	// the growth at which the residual is within 16n round-offs of ‖T‖.
	enough := 1 / (16 * float64(n) * pivot)
	for _, step := range invIterStarts {
		for i := range z {
			_, frac := math.Modf(float64(i+1) * step)
			z[i] = frac + 0.5
		}
		matrix.Vector(z).Normalize()
		for it := 1; it <= invIterMax; it++ {
			solveShiftedTridiag(d, e, sigma, pivot, z, p1, p2, p3)
			g := matrix.Vector(z).Normalize()
			if math.IsNaN(g) || math.IsInf(g, 0) {
				break // try the other start rather than iterate on garbage
			}
			if it >= 2 && g >= enough {
				return nil
			}
		}
	}
	return fmt.Errorf("inverse iteration for eigenvalue %g: %w", sigma, ErrNoConvergence)
}

// solveShiftedTridiag overwrites b with the solution x of (T − σI)·x = b
// for the symmetric tridiagonal T = (d, e), by Gaussian elimination with
// partial pivoting; a pivot that cancels to exactly zero is replaced by
// `pivot`, which is what makes the solve usable at an eigenvalue. p1, p2,
// p3 receive the three diagonals of the upper factor.
func solveShiftedTridiag(d, e []float64, sigma, pivot float64, b, p1, p2, p3 []float64) {
	n := len(d)
	// (u, v | r) is the current pivot row: diagonal, super-diagonal, rhs.
	u, v, r := d[0]-sigma, e[0], b[0]
	for i := 1; i < n; i++ {
		c, di, ei := e[i-1], d[i]-sigma, e[i]
		if c != 0 && math.Abs(c) >= math.Abs(u) { //vet:ignore floatcmp exact-zero guard on the divisor below; any nonzero coupling may pivot
			// Row i has the larger leading entry: swap it in.
			m := u / c
			p1[i-1], p2[i-1], p3[i-1] = c, di, ei
			u, v = v-m*di, -m*ei
			b[i-1], r = b[i], r-m*b[i]
		} else {
			if u == 0 { //vet:ignore floatcmp only an exact zero divides by zero; tiny pivots are the point of inverse iteration
				u = pivot
			}
			m := c / u
			p1[i-1], p2[i-1], p3[i-1] = u, v, 0
			b[i-1] = r
			u, v, r = di-m*v, ei, b[i]-m*r
		}
	}
	if u == 0 { //vet:ignore floatcmp as above
		u = pivot
	}
	p1[n-1], p2[n-1], p3[n-1] = u, 0, 0
	b[n-1] = r

	var x1, x2 float64 // x[i+1], x[i+2]
	for i := n - 1; i >= 0; i-- {
		x := (b[i] - p2[i]*x1 - p3[i]*x2) / p1[i]
		b[i] = x
		x1, x2 = x, x1
	}
}
