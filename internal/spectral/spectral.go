// Package spectral implements the paper's graph-spectrum-based minimum-cut
// search (§III-B). Theorem 2 identifies the weight of a cut (A, B) with the
// quadratic form qᵀLq/(d1−d2)² of the graph Laplacian for the ±1 side
// indicator q; Theorem 3 places the extreme points of the cut functional at
// eigenvectors of L; and Theorem 1 concludes that the minimum cut is carried
// by the second-smallest eigenpair (the smallest, 0, belongs to the constant
// vector, which encodes the trivial empty cut).
//
// Bisect therefore computes the Fiedler pair of each compressed sub-graph
// and splits nodes by eigenvector sign, optionally refining the split with a
// sweep cut over the eigenvector ordering — the standard rounding of the
// relaxed spectral solution back to a discrete cut.
package spectral

import (
	"errors"

	"copmecs/internal/eigen"
	"copmecs/internal/graph"
)

// ErrEmptyGraph is returned when there is nothing to cut.
var ErrEmptyGraph = errors.New("spectral: empty graph")

// Objective selects what the sweep refinement minimises.
type Objective int

// Sweep objectives.
const (
	// MinCut minimises the plain cut weight (the paper's formula (8)).
	MinCut Objective = iota
	// RatioCut minimises cut/(|A|·|B|), trading cut weight for balance —
	// the classical relaxation the Fiedler vector actually optimises.
	// Useful when lopsided cuts leave one side too small to matter.
	RatioCut
)

// Options tunes Bisect. The zero value enables the sweep-cut refinement
// with the MinCut objective and default eigensolver settings.
type Options struct {
	// DisableSweep turns off the sweep-cut refinement, leaving the raw
	// eigenvector sign split (used by the ablation benchmarks).
	DisableSweep bool
	// Objective selects the sweep criterion (default MinCut).
	Objective Objective
	// Eigen carries eigensolver options.
	Eigen eigen.FiedlerOptions
}

// Cut is a two-way split of a graph's nodes.
type Cut struct {
	// SideA and SideB partition the graph's nodes; both are sorted. SideB
	// is empty when the graph has a single node (nothing to cut).
	SideA, SideB []graph.NodeID
	// Weight is the total weight of edges crossing the cut (formula (8)).
	Weight float64
	// Lambda2 is the second-smallest Laplacian eigenvalue, the paper's
	// Theorem 1 bound for the minimum cut.
	Lambda2 float64
}

// Bisect splits g into two parts of small cut weight using the Fiedler
// vector. A single-node graph yields the degenerate cut (that node, ∅, 0).
// It is the *graph.Graph front of the one CSR kernel: compile, bisect over
// dense indices, translate the sides back to NodeIDs (index order is NodeID
// order, so both sides come out sorted).
func Bisect(g *graph.Graph, opts Options) (*Cut, error) {
	c := g.Compile()
	n := c.NumNodes()
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	// The kernel takes flat arrays; the view is this function's own, so the
	// rows are laid out here rather than through an accessor on CSR.
	off := make([]int32, n+1)
	tgt := make([]int32, 0, 2*c.NumEdges())
	wts := make([]float64, 0, 2*c.NumEdges())
	for u := int32(0); u < int32(n); u++ {
		t, w := c.Adj(u)
		tgt, wts = append(tgt, t...), append(wts, w...)
		off[u+1] = int32(len(tgt))
	}
	a, b, lambda2, err := bisectCSR(off, tgt, wts, make([]int32, n), opts)
	if err != nil {
		return nil, err
	}
	cut := &Cut{Lambda2: lambda2, SideA: make([]graph.NodeID, len(a))}
	inA := make([]bool, n)
	for i, u := range a {
		cut.SideA[i] = c.IDOf(u)
		inA[u] = true
	}
	if len(b) > 0 {
		cut.SideB = make([]graph.NodeID, len(b))
		for i, u := range b {
			cut.SideB[i] = c.IDOf(u)
		}
	}
	// Formula (8), summed u ascending, v > u ascending — graph.CutWeight's
	// order, so the two agree to the last bit.
	for u := int32(0); u < int32(n); u++ {
		for e := off[u]; e < off[u+1]; e++ {
			if v := tgt[e]; v > u && inA[u] != inA[v] {
				cut.Weight += wts[e]
			}
		}
	}
	return cut, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
