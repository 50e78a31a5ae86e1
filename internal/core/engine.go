// Package core implements the paper's contribution: the COPMECS solver that
// combines label-propagation graph compression (Algorithm 1), per-sub-graph
// minimum-cut search, and greedy offloading-scheme generation (Algorithm 2)
// for all users of one edge server at once.
//
// The minimum-cut step is pluggable: the spectral engine is the paper's
// proposal (Theorems 1–3); the max-flow and Kernighan–Lin engines are its
// experimental baselines (§IV); Stoer–Wagner provides an exact reference.
package core

import (
	"context"
	"fmt"

	"copmecs/internal/eigen"
	"copmecs/internal/mincut"
	"copmecs/internal/spectral"
)

// Engine bisects a compressed sub-graph into the two candidate placement
// parts of Algorithm 2. Every engine sees the same input: the sub-graph's
// induced CSR over local ids 0..n−1, node u's neighbours tgt[off[u]:off[u+1]]
// (strictly ascending, no self-loops, symmetric) with weights w. Local ids
// ascend with the NodeIDs they stand for, so an engine whose decisions
// depend only on id order cuts exactly as it would the original nodes.
// Implementations must be safe for concurrent Bisect calls.
type Engine interface {
	// Name identifies the engine in stats and experiment output.
	Name() string
	// Bisect returns two sides of ascending local ids that partition
	// 0..n−1, sideB empty for a single node, and the Lanczos iterations the
	// cut cost (0 for engines that run none). sides is an n-length slab the
	// engine may carve the two sides from; the caller owns whatever is
	// returned. Implementations must honour ctx cancellation, at minimum by
	// failing fast between cuts.
	Bisect(ctx context.Context, off, tgt []int32, w []float64, sides []int32) (sideA, sideB []int32, iters int, err error)
}

// EngineByName returns the default-configured engine whose Name() is name;
// "kl" and "sw" are short for kernighan-lin and stoer-wagner.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "kl":
		name = KLEngine{}.Name()
	case "sw":
		name = StoerWagnerEngine{}.Name()
	}
	for _, e := range []Engine{SpectralEngine{}, MaxFlowEngine{}, KLEngine{}, StoerWagnerEngine{}} {
		if e.Name() == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("unknown engine %q", name)
}

// SpectralEngine is the paper's graph-spectrum cut (§III-B): Fiedler-vector
// bisection with optional sweep refinement.
type SpectralEngine struct {
	// DisableSweep keeps the raw eigenvector sign split (ablation).
	DisableSweep bool
	// Balanced sweeps with the RatioCut objective (cut/(|A|·|B|)) instead
	// of the plain minimum cut, trading cut weight for balance.
	Balanced bool
	// DenseCutoff overrides the dense-eigensolver threshold (0 = default).
	DenseCutoff int
}

var _ Engine = SpectralEngine{}

// Name implements Engine.
func (e SpectralEngine) Name() string {
	if e.Balanced {
		return "spectral-balanced"
	}
	return "spectral"
}

// Bisect implements Engine with spectral.BisectCSRInto, carving the sides
// from the caller's slab.
func (e SpectralEngine) Bisect(ctx context.Context, off, tgt []int32, w []float64, sides []int32) ([]int32, []int32, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	var iters int
	opts := spectral.Options{
		DisableSweep: e.DisableSweep,
		Eigen:        eigen.FiedlerOptions{DenseCutoff: e.DenseCutoff},
	}
	if e.Balanced {
		opts.Objective = spectral.RatioCut
	}
	opts.Eigen.IterOut = &iters
	a, b, err := spectral.BisectCSRInto(off, tgt, w, sides, opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("spectral engine: %w", err)
	}
	return a, b, iters, nil
}

// MaxFlowEngine is the Ford–Fulkerson/Edmonds–Karp baseline of §IV.
type MaxFlowEngine struct{}

var _ Engine = MaxFlowEngine{}

// Name implements Engine.
func (MaxFlowEngine) Name() string { return "maxflow" }

// Bisect implements Engine.
func (MaxFlowEngine) Bisect(ctx context.Context, off, tgt []int32, w []float64, _ []int32) ([]int32, []int32, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	a, b, _, err := mincut.MaxFlowBisect(off, tgt, w)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("maxflow engine: %w", err)
	}
	return a, b, 0, nil
}

// KLEngine is the Kernighan–Lin baseline of §IV.
type KLEngine struct{}

var _ Engine = KLEngine{}

// Name implements Engine.
func (KLEngine) Name() string { return "kernighan-lin" }

// Bisect implements Engine.
func (KLEngine) Bisect(ctx context.Context, off, tgt []int32, w []float64, _ []int32) ([]int32, []int32, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	a, b, _, err := mincut.KernighanLin(off, tgt, w)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("kernighan-lin engine: %w", err)
	}
	return a, b, 0, nil
}

// StoerWagnerEngine computes the exact global minimum cut; used as a
// reference engine for validation and small instances.
type StoerWagnerEngine struct{}

var _ Engine = StoerWagnerEngine{}

// Name implements Engine.
func (StoerWagnerEngine) Name() string { return "stoer-wagner" }

// Bisect implements Engine.
func (StoerWagnerEngine) Bisect(ctx context.Context, off, tgt []int32, w []float64, _ []int32) ([]int32, []int32, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	a, b, _, err := mincut.GlobalMinCut(off, tgt, w)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("stoer-wagner engine: %w", err)
	}
	return a, b, 0, nil
}
