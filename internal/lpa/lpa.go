// Package lpa implements the paper's Algorithm 1: label-propagation-based
// compression of function data-flow graphs.
//
// The pipeline per the paper (§III-A):
//
//  1. split the graph into component sub-graphs (compression never crosses
//     component boundaries because inter-component coupling is small);
//  2. inside each sub-graph, label the maximum-degree node first (the
//     "starter") and propagate labels breadth-first: a label crosses an
//     edge only when the edge weight exceeds the threshold w, otherwise the
//     far node receives a fresh label;
//  3. repeat propagation rounds until the update rate α drops to αt or βt
//     rounds have run;
//  4. contract directly-connected same-label nodes into super-nodes, so
//     highly coupled functions can never be separated by a later cut.
//
// Sub-graphs are processed in parallel, mirroring "one new process will be
// generated for each sub-graph" in Algorithm 1.
package lpa

import (
	"errors"
	"fmt"
	"runtime"

	"copmecs/internal/graph"
)

// ErrBadOptions is returned for inconsistent options.
var ErrBadOptions = errors.New("lpa: invalid options")

// Options tunes Algorithm 1. The zero value picks the paper-flavoured
// defaults: automatic threshold at the 0.75 edge-weight quantile, αt = 0.02,
// βt = 20, parallelism = GOMAXPROCS. Rounds visit nodes breadth-first from
// the starter; the paper allows "depth-first or breadth-first policies".
type Options struct {
	// WeightThreshold is w: a label propagates across an edge only if the
	// edge weight is strictly larger. 0 means automatic (the 0.75 quantile
	// of the sub-graph's edge weights); negative is invalid.
	WeightThreshold float64
	// MinUpdateRate is αt: propagation stops once the fraction of nodes
	// whose label changed in a round is ≤ αt. 0 means 0.02.
	MinUpdateRate float64
	// MaxRounds is βt: the hard cap on propagation rounds. 0 means 20.
	MaxRounds int
	// Workers bounds the number of sub-graphs compressed concurrently.
	// 0 means GOMAXPROCS; 1 forces serial execution.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MinUpdateRate == 0 {
		o.MinUpdateRate = 0.02
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 20
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

func (o Options) validate() error {
	switch {
	case o.WeightThreshold < 0:
		return fmt.Errorf("%w: weight threshold %g", ErrBadOptions, o.WeightThreshold)
	case o.MinUpdateRate < 0 || o.MinUpdateRate > 1:
		return fmt.Errorf("%w: min update rate %g", ErrBadOptions, o.MinUpdateRate)
	case o.MaxRounds < 1:
		return fmt.Errorf("%w: max rounds %d", ErrBadOptions, o.MaxRounds)
	case o.Workers < 1:
		return fmt.Errorf("%w: workers %d", ErrBadOptions, o.Workers)
	}
	return nil
}

// AutoThreshold returns the q-quantile (0 ≤ q ≤ 1) of g's edge weights,
// which compression uses as the coupling threshold when none is given. A graph
// without edges yields 0. The quantile is exact — the element a full sort
// would place at index ⌊q·(m−1)⌋ — but found by quickselect in O(m) instead
// of copying and sorting every weight per sub-graph per compression.
func AutoThreshold(g *graph.Graph, q float64) float64 {
	ws := g.AppendEdgeWeights(nil)
	return quantile(ws, q)
}

// quantile returns the exact q-quantile of ws (see AutoThreshold), partially
// reordering ws in place. Empty input yields 0.
func quantile(ws []float64, q float64) float64 {
	m := len(ws)
	if m == 0 {
		return 0
	}
	k := 0
	switch {
	case q >= 1:
		k = m - 1
	case q > 0:
		k = int(q * float64(m-1))
	}
	return selectKth(ws, k)
}
