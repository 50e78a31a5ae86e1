package matrix

import "fmt"

// WeightedEdge is an undirected weighted edge over dense indices 0..n−1,
// used to assemble Laplacians without depending on the graph package.
type WeightedEdge struct {
	U, V   int
	Weight float64
}

// Laplacian assembles the (combinatorial) graph Laplacian L = D − W as a CSR
// matrix for a graph with n nodes and the given undirected edges:
//
//	L[i][i] = Σ_j w(i,j)        (weighted degree)
//	L[i][j] = −w(i,j)  (i ≠ j)
//
// The paper's Theorems 1–3 relate CUT(G₁, G₂) to the quadratic form qᵀLq of
// this matrix, so the spectral cut operates on exactly this L.
func Laplacian(n int, edges []WeightedEdge) (*CSR, error) {
	entries := make([]Triplet, 0, 3*len(edges)+n)
	deg := make([]float64, n)
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("laplacian edge (%d,%d) outside n=%d: %w", e.U, e.V, n, ErrDimension)
		}
		if e.U == e.V {
			continue // self-loops contribute nothing to L
		}
		entries = append(entries,
			Triplet{Row: e.U, Col: e.V, Val: -e.Weight},
			Triplet{Row: e.V, Col: e.U, Val: -e.Weight},
		)
		deg[e.U] += e.Weight
		deg[e.V] += e.Weight
	}
	for i, d := range deg {
		entries = append(entries, Triplet{Row: i, Col: i, Val: d})
	}
	return NewCSR(n, n, entries)
}
