package eigen

import (
	"fmt"
	"math"
)

// tqlMaxIter bounds the per-eigenvalue QL iteration count.
const tqlMaxIter = 60

// SymTridiagEigen is the test-side oracle for the Sturm bisection both
// Fiedler solvers take their eigenvalue from: it computes all eigenvalues —
// and, when vecs is non-nil, the eigenvectors — of the symmetric tridiagonal
// matrix with diagonal d (length n) and sub-diagonal e (length n−1 or n with
// a trailing ignored entry), using the implicit-shift QL algorithm (EISPACK
// tql2), which shares no code with the bisection.
//
// On return the eigenvalues are ascending. vecs, when provided, must be an
// n×n row-major accumulator initialised to the identity; its columns are
// rotated into eigenvectors in place.
//
// d holds the eigenvalues afterwards; e is left as given.
func SymTridiagEigen(d, e []float64, vecs [][]float64) error {
	n := len(d)
	if n == 0 {
		return ErrEmpty
	}
	if len(e) < n-1 {
		return fmt.Errorf("tridiag: sub-diagonal has %d entries, want ≥ %d", len(e), n-1)
	}
	if n == 1 {
		return nil
	}
	// Work on a copy of e padded to n entries, so e itself is left alone.
	sub := make([]float64, n)
	copy(sub[:n-1], e[:n-1])
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find a negligible sub-diagonal element.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(sub[m]) <= 1e-15*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= tqlMaxIter {
				return fmt.Errorf("tridiag eigenvalue %d: %w", l, ErrNoConvergence)
			}
			// Form implicit shift.
			g := (d[l+1] - d[l]) / (2 * sub[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + sub[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * sub[i]
				b := c * sub[i]
				r = math.Hypot(f, g)
				sub[i+1] = r
				if r == 0 { //vet:ignore floatcmp canonical tqli underflow recovery (Numerical Recipes §11.3) requires the exact test
					d[i+1] -= p
					sub[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				if vecs != nil {
					for k := 0; k < len(vecs); k++ {
						f := vecs[k][i+1]
						vecs[k][i+1] = s*vecs[k][i] + c*f
						vecs[k][i] = c*vecs[k][i] - s*f
					}
				}
			}
			if r == 0 && m-1 >= l { //vet:ignore floatcmp pairs with the underflow recovery above; must match it exactly
				continue
			}
			d[l] -= p
			sub[l] = g
			sub[m] = 0
		}
	}
	// Sort ascending, permuting eigenvector columns alongside.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			if vecs != nil {
				for r := 0; r < len(vecs); r++ {
					vecs[r][i], vecs[r][k] = vecs[r][k], vecs[r][i]
				}
			}
		}
	}
	return nil
}
