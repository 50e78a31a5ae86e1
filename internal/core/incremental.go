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
// graph. The cold path runs — reported in DeltaStats — when base has no
// cached delta state (only SolveDelta captures it) or the delta's
// touched-edge fraction exceeds the threshold; it is the same pipeline call
// with no predecessor, over the mutated graph's freshly compiled view, so
// the next delta against the returned graph is incremental either way.
func (s *Session) SolveDelta(ctx context.Context, base *graph.Graph, d *graph.Delta, users []UserInput, dopts DeltaOptions) (*graph.Graph, *Solution, *DeltaStats, error) {
	mutated := base.Clone()
	if err := d.Apply(mutated); err != nil {
		return nil, nil, nil, fmt.Errorf("core: apply delta: %w", err)
	}
	sol, ds, err := s.solveApplied(ctx, base, d, mutated, users, dopts, s.opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return mutated, sol, ds, nil
}

// SolveApplied is the second half of SolveDelta for a caller that has
// already applied d to a clone of base — to validate, size-check or
// fingerprint the mutated graph — and would otherwise pay for the clone and
// the apply twice: applied is solved as SolveDelta would solve its own
// mutated instance, and becomes the graph the next delta names as base.
// params overrides the MEC system constants for this call, mirroring
// SolveWithParams: the incremental pipeline state is params-independent, so
// the cached cuts replay whichever parameters the population is solved under.
// The session still patches base's cached view with d on its own and refuses
// an applied graph whose node or edge count disagrees with the patched view.
// applied must not be modified afterwards.
func (s *Session) SolveApplied(ctx context.Context, base *graph.Graph, d *graph.Delta, applied *graph.Graph, users []UserInput, dopts DeltaOptions, params mec.Params) (*Solution, *DeltaStats, error) {
	opts := s.opts
	opts.Params = params
	return s.solveApplied(ctx, base, d, applied, users, dopts, opts)
}

// solveApplied solves mutated — base with d applied — reusing base's cached
// pipeline state through the patched view.
func (s *Session) solveApplied(ctx context.Context, base *graph.Graph, d *graph.Delta, mutated *graph.Graph, users []UserInput, dopts DeltaOptions, sopts Options) (*Solution, *DeltaStats, error) {
	us := make([]UserInput, len(users))
	copy(us, users)
	for i := range us {
		if us[i].Graph == nil || us[i].Graph == base {
			us[i].Graph = mutated
		}
	}

	// Decide between patching base's view and compiling mutated cold.
	ds := &DeltaStats{}
	var (
		prev *solveState
		view *graph.CSR
		info *graph.PatchInfo
	)
	if gp := s.lookup(base); gp != nil {
		prev = gp.delta
	}
	if prev == nil {
		ds.FallbackReason = "no cached state for base graph"
	} else {
		var err error
		view, info, err = prev.view.View.Patch(d)
		if err != nil {
			return nil, nil, fmt.Errorf("core: patch: %w", err)
		}
		if view.NumNodes() != mutated.NumNodes() || view.NumEdges() != mutated.NumEdges() {
			return nil, nil, fmt.Errorf("core: applied graph (%d nodes, %d edges) is not base plus delta (%d nodes, %d edges)",
				mutated.NumNodes(), mutated.NumEdges(), view.NumNodes(), view.NumEdges())
		}
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
		prev, view = nil, mutated.Compile()
	} else {
		ds.Incremental = true
		for _, oc := range info.OldCompOf {
			if oc >= 0 {
				ds.CleanComponents++
				ds.LanczosItersSaved += prev.comps[oc].iters
			}
		}
		ds.DirtyComponents = len(info.OldCompOf) - ds.CleanComponents
	}

	start := time.Now()
	out, st, err := runPipeline(ctx, sopts.normalised(), singleSpan(view), prev, info)
	if err != nil {
		return nil, nil, err
	}
	if ds.Incremental {
		ds.PatchTime = time.Since(start)
	}
	out[0].delta = st
	s.store(mutated, &out[0])

	// The back half, and the pipeline of any other graph the population
	// names, is a regular solve that finds mutated in the cache.
	sol, err := solveOne(ctx, us, sopts, s)
	if err != nil {
		return nil, nil, err
	}
	return sol, ds, nil
}
