package core

import (
	"context"
	"fmt"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
	"copmecs/internal/numeric"
)

// DefaultMaxTouchedFraction is the touched-edge fraction above which
// SolveDelta abandons the incremental path: once a delta touches this share
// of the patched graph's edges, enough components are dirty that patching,
// re-compressing and re-cutting costs about as much as a cold pipeline.
const DefaultMaxTouchedFraction = 0.2

// DeltaOptions tunes SolveDelta. The zero value uses the default fallback
// threshold.
type DeltaOptions struct {
	// MaxTouchedFraction is the cold-fallback threshold on
	// TouchedEdges / patched edge count; 0 means DefaultMaxTouchedFraction.
	MaxTouchedFraction float64
}

// DeltaStats reports what the incremental path did for one SolveDelta.
type DeltaStats struct {
	// Incremental is true when the delta-patched pipeline ran; false means
	// the cold path solved the mutated graph from scratch.
	Incremental bool
	// ColdFallback is true when the cold path ran; FallbackReason says why.
	ColdFallback   bool
	FallbackReason string
	// CleanComponents were replayed from the cached state; DirtyComponents
	// were re-cut.
	CleanComponents, DirtyComponents int
	// TouchedEdges and TouchedFraction describe the delta's footprint on
	// the patched view (zero on the cold path, where no patch is computed).
	TouchedEdges    int
	TouchedFraction float64
	// LanczosItersSaved is the total Lanczos iteration count recorded for
	// the replayed components — the eigensolver work the replay avoided.
	LanczosItersSaved int
	// PatchTime covers the patched view's pipeline run — incremental
	// compression, dirty re-cuts, template assembly; zero on the cold path.
	PatchTime time.Duration
}

// SolveDelta applies d to base and solves the mutated population, reusing
// the cached pipeline state of base wherever the delta left components
// untouched: the frozen view is delta-patched instead of recompiled,
// compression re-runs only on touched components, and only their sub-graphs
// are re-cut. The mutated graph (base is never modified) is returned along
// with the solution; subsequent deltas against it stay incremental.
//
// The solution is bit-for-bit identical to Solve on the mutated graph:
// untouched components replay their recorded cuts (pipeline outputs are pure
// functions of component-internal structure), touched components re-run the
// identical cold code, and the greedy pass runs in full. The exactness table
// asserts this.
//
// Every user whose Graph is nil or base is solved against the mutated
// graph. The cold path runs — reported in DeltaStats — when the session
// never pipelined base (or dropped it: Invalidate) or the delta's
// touched-edge fraction exceeds the threshold; it is the same pipeline call
// with no predecessor, over the mutated graph's freshly compiled view, so
// the next delta against the returned graph is incremental either way.
// SolveDelta is Apply and SolveApplied under the session's own params.
func (s *Session) SolveDelta(ctx context.Context, base *graph.Graph, d *graph.Delta, users []UserInput, dopts DeltaOptions) (*graph.Graph, *Solution, *DeltaStats, error) {
	mutated := base.Clone()
	if err := d.Apply(mutated); err != nil {
		return nil, nil, nil, fmt.Errorf("core: apply delta: %w", err)
	}
	a, err := s.Apply(base, d, mutated, dopts)
	if err != nil {
		return nil, nil, nil, err
	}
	sol, ds, err := s.solveApplied(ctx, a, users, s.opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return mutated, sol, ds, nil
}

// Applied is a graph with a delta applied, paired with the frozen view the
// session will solve it over: base's cached view patched by the delta, or
// the applied graph compiled when the delta takes the cold path. Apply
// builds it and SolveApplied solves it; in between, Fingerprint keys the
// applied graph off that view without walking its node table.
type Applied struct {
	// Graph is the applied graph, the one the next delta names as base. It
	// must not be modified.
	Graph *graph.Graph
	base  *graph.Graph
	view  *graph.CSR
	// prev and info name the patched view's predecessor; both nil on the
	// cold path.
	prev  *graphPipeline
	info  *graph.PatchInfo
	stats DeltaStats
}

// Fingerprint returns the applied graph's graph.Fingerprint, hashed off the
// view SolveApplied will run on.
func (a *Applied) Fingerprint() (string, error) { return a.view.Fingerprint() }

// Apply builds the view SolveApplied solves applied over, for a caller that
// has applied d to a clone of base itself — to validate and size-check the
// mutated graph before paying for a solve. It patches base's cached view
// with d, once, and refuses an applied graph whose node or edge count
// disagrees with the patched view; without cached state for base, or when
// the delta touches more than the threshold's share of edges, it compiles
// applied instead. Which path the solve takes is decided here and reported
// by SolveApplied's DeltaStats.
func (s *Session) Apply(base *graph.Graph, d *graph.Delta, applied *graph.Graph, dopts DeltaOptions) (*Applied, error) {
	a := &Applied{Graph: applied, base: base, prev: s.lookup(base)}
	ds := &a.stats
	if a.prev == nil {
		ds.FallbackReason = "no cached state for base graph"
	} else {
		view, info, err := a.prev.view.Patch(d)
		if err != nil {
			return nil, fmt.Errorf("core: patch: %w", err)
		}
		if view.NumNodes() != applied.NumNodes() || view.NumEdges() != applied.NumEdges() {
			return nil, fmt.Errorf("core: applied graph (%d nodes, %d edges) is not base plus delta (%d nodes, %d edges)",
				applied.NumNodes(), applied.NumEdges(), view.NumNodes(), view.NumEdges())
		}
		a.view, a.info = view, info
		ds.TouchedEdges = info.TouchedEdges
		if e := view.NumEdges(); e > 0 {
			ds.TouchedFraction = float64(info.TouchedEdges) / float64(e)
		} else if info.TouchedEdges > 0 {
			ds.TouchedFraction = 1
		}
		maxFrac := dopts.MaxTouchedFraction
		if numeric.Zero(maxFrac) {
			maxFrac = DefaultMaxTouchedFraction
		}
		if ds.TouchedFraction > maxFrac {
			ds.FallbackReason = fmt.Sprintf("touched-edge fraction %.3f above threshold %.3f", ds.TouchedFraction, maxFrac)
		}
	}
	if ds.FallbackReason != "" {
		ds.ColdFallback = true
		a.prev, a.info, a.view = nil, nil, applied.Compile()
		return a, nil
	}
	ds.Incremental = true
	for _, oc := range a.info.OldCompOf {
		if oc >= 0 {
			ds.CleanComponents++
			ds.LanczosItersSaved += a.prev.comps[oc].iters
		}
	}
	ds.DirtyComponents = len(a.info.OldCompOf) - ds.CleanComponents
	return a, nil
}

// SolveApplied solves the population over a's view, as SolveDelta would
// solve its own mutated instance: every user whose Graph is nil or a's base
// is solved against a.Graph, which becomes the graph the next delta names as
// base. params overrides the MEC system constants for this call, as a
// BatchItem's Params does: the incremental pipeline state is
// params-independent, so the cached cuts replay whichever parameters the
// population is solved under.
func (s *Session) SolveApplied(ctx context.Context, a *Applied, users []UserInput, params mec.Params) (*Solution, *DeltaStats, error) {
	opts := s.opts
	opts.Params = params
	return s.solveApplied(ctx, a, users, opts)
}

// solveApplied runs the pipeline over a's view, caches its outcome under
// a.Graph and solves the population.
func (s *Session) solveApplied(ctx context.Context, a *Applied, users []UserInput, sopts Options) (*Solution, *DeltaStats, error) {
	us := make([]UserInput, len(users))
	copy(us, users)
	for i := range us {
		if us[i].Graph == nil || us[i].Graph == a.base {
			us[i].Graph = a.Graph
		}
	}

	ds := a.stats
	start := time.Now()
	out, err := runPipeline(ctx, sopts.normalised(), []*graph.CSR{a.view}, a.prev, a.info)
	if err != nil {
		return nil, nil, err
	}
	if ds.Incremental {
		ds.PatchTime = time.Since(start)
	}
	s.store(a.Graph, out[0])

	// The back half, and the pipeline of any other graph the population
	// names, is a regular solve that finds a.Graph in the cache.
	sol, err := solveOne(ctx, us, sopts, s)
	if err != nil {
		return nil, nil, err
	}
	return sol, &ds, nil
}
