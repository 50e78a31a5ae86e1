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
	"copmecs/internal/graph"
	"copmecs/internal/mincut"
	"copmecs/internal/spectral"
)

// Engine bisects a compressed sub-graph into the two candidate placement
// parts of Algorithm 2. Implementations must return sides that partition the
// graph's nodes, with SideB possibly empty for single-node graphs, and must
// be safe for concurrent Bisect calls.
type Engine interface {
	// Name identifies the engine in stats and experiment output.
	Name() string
	// Bisect splits g; the two sides partition g's nodes. Implementations
	// must honour ctx cancellation, at minimum by failing fast between
	// cuts.
	Bisect(ctx context.Context, g *graph.Graph) (sideA, sideB []graph.NodeID, err error)
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

// spectralOptions translates the engine configuration into the spectral
// package's options; shared by Bisect and the pipeline's CSR-native splits
// so the two can never drift apart.
func (e SpectralEngine) spectralOptions() spectral.Options {
	opts := spectral.Options{
		DisableSweep: e.DisableSweep,
		Eigen:        eigen.FiedlerOptions{DenseCutoff: e.DenseCutoff},
	}
	if e.Balanced {
		opts.Objective = spectral.RatioCut
	}
	return opts
}

// Bisect implements Engine.
func (e SpectralEngine) Bisect(ctx context.Context, g *graph.Graph) ([]graph.NodeID, []graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cut, err := spectral.Bisect(g, e.spectralOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("spectral engine: %w", err)
	}
	return cut.SideA, cut.SideB, nil
}

// MaxFlowEngine is the Ford–Fulkerson/Edmonds–Karp baseline of §IV.
type MaxFlowEngine struct {
	// Sinks is the number of candidate sinks tried (0 = default 3).
	Sinks int
}

var _ Engine = MaxFlowEngine{}

// Name implements Engine.
func (e MaxFlowEngine) Name() string { return "maxflow" }

// Bisect implements Engine.
func (e MaxFlowEngine) Bisect(ctx context.Context, g *graph.Graph) ([]graph.NodeID, []graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	a, b, _, err := mincut.MaxFlowBisect(g, e.Sinks)
	if err != nil {
		return nil, nil, fmt.Errorf("maxflow engine: %w", err)
	}
	return a, b, nil
}

// KLEngine is the Kernighan–Lin baseline of §IV.
type KLEngine struct{}

var _ Engine = KLEngine{}

// Name implements Engine.
func (KLEngine) Name() string { return "kernighan-lin" }

// Bisect implements Engine.
func (KLEngine) Bisect(ctx context.Context, g *graph.Graph) ([]graph.NodeID, []graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	a, b, _, err := mincut.KernighanLin(g)
	if err != nil {
		return nil, nil, fmt.Errorf("kernighan-lin engine: %w", err)
	}
	return a, b, nil
}

// StoerWagnerEngine computes the exact global minimum cut; used as a
// reference engine for validation and small instances.
type StoerWagnerEngine struct{}

var _ Engine = StoerWagnerEngine{}

// Name implements Engine.
func (StoerWagnerEngine) Name() string { return "stoer-wagner" }

// Bisect implements Engine.
func (StoerWagnerEngine) Bisect(ctx context.Context, g *graph.Graph) ([]graph.NodeID, []graph.NodeID, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	a, b, _, err := mincut.GlobalMinCut(g)
	if err != nil {
		return nil, nil, fmt.Errorf("stoer-wagner engine: %w", err)
	}
	return a, b, nil
}
