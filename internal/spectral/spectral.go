// Package spectral implements the paper's graph-spectrum-based minimum-cut
// search (§III-B). Theorem 2 identifies the weight of a cut (A, B) with the
// quadratic form qᵀLq/(d1−d2)² of the graph Laplacian for the ±1 side
// indicator q; Theorem 3 places the extreme points of the cut functional at
// eigenvectors of L; and Theorem 1 concludes that the minimum cut is carried
// by the second-smallest eigenpair (the smallest, 0, belongs to the constant
// vector, which encodes the trivial empty cut).
//
// BisectCSRInto therefore computes the Fiedler pair of each compressed
// sub-graph and splits nodes by eigenvector sign, optionally refining the
// split with a sweep cut over the eigenvector ordering — the standard
// rounding of the relaxed spectral solution back to a discrete cut.
package spectral

import (
	"errors"

	"copmecs/internal/eigen"
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

// Options tunes BisectCSRInto. The zero value enables the sweep-cut
// refinement with the MinCut objective and default eigensolver settings.
type Options struct {
	// DisableSweep turns off the sweep-cut refinement, leaving the raw
	// eigenvector sign split (used by the ablation benchmarks).
	DisableSweep bool
	// Objective selects the sweep criterion (default MinCut).
	Objective Objective
	// Eigen carries eigensolver options.
	Eigen eigen.FiedlerOptions
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
