package core

import (
	"context"
	"fmt"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/numeric"
)

// DefaultMaxTouchedFraction is the touched-edge fraction above which
// Apply abandons the incremental path: once a delta touches this share
// of the patched graph's edges, enough components are dirty that patching,
// re-compressing and re-cutting costs about as much as a cold pipeline.
const DefaultMaxTouchedFraction = 0.2

// DeltaOptions tunes Apply and SolveDelta. The zero value uses the default
// fallback threshold.
type DeltaOptions struct {
	// MaxTouchedFraction is the cold-fallback threshold on
	// TouchedEdges / patched edge count; 0 means DefaultMaxTouchedFraction.
	MaxTouchedFraction float64
}

// DeltaStats reports what the incremental path did for one applied delta.
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
	// PatchTime is the pipeline time of the pass that ran the patched view —
	// incremental compression, dirty re-cuts, template assembly; zero on the
	// cold path.
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
// touched-edge fraction exceeds the threshold; it is the same pipeline pass
// with no predecessor, over base's view (compiled when not cached) patched by
// d, so the next delta against the returned graph is incremental either way.
// SolveDelta is Apply and a BatchSolve pass of one item that stages the
// applied view, under the session's own params; the returned graph is the
// library's materialisation of that view, a copy-on-write Clone of base with
// d applied, so it too costs what d touched.
func (s *Session) SolveDelta(ctx context.Context, base *graph.Graph, d *graph.Delta, users []UserInput, dopts DeltaOptions) (*graph.Graph, *Solution, *DeltaStats, error) {
	mutated := base.Clone()
	if err := d.Apply(mutated); err != nil {
		return nil, nil, nil, fmt.Errorf("core: apply delta: %w", err)
	}
	prev := s.lookup(base)
	var view *graph.CSR
	if prev != nil {
		view = prev.view
	} else {
		view = base.Compile()
	}
	a, err := apply(prev, view, d, dopts)
	if err != nil {
		return nil, nil, nil, err
	}
	us := make([]UserInput, len(users))
	copy(us, users)
	for i := range us {
		if us[i].Graph == nil || us[i].Graph == base {
			us[i].Graph, us[i].View = mutated, a.View()
		}
	}
	r := s.BatchSolve(ctx, []BatchItem{{Users: us}}, a)[0]
	if r.Err != nil {
		return nil, nil, nil, r.Err
	}
	ds := a.Stats()
	if ds.Incremental {
		ds.PatchTime = r.Solution.Stats.PipelineTime
	}
	return mutated, r.Solution, &ds, nil
}

// Applied is a view with a delta applied, staged for the session to pipeline:
// base's view patched by the delta, carrying base's cached state unless the
// delta takes the cold path. Apply builds it and a BatchSolve pass with a
// user naming its View stages it; in between, the view's Fingerprint keys
// the applied graph without a node table.
type Applied struct {
	// staged carries the view and, on the incremental path, its predecessor
	// and the patch; prev and info are nil on the cold path.
	staged stagedView
	stats  DeltaStats
}

// View returns the patched view: the applied graph, and the base the next
// delta names. It must not be modified.
func (a *Applied) View() *graph.CSR { return a.staged.view }

// Stats reports which path Apply chose and the delta's footprint. PatchTime
// is zero: the pipeline time belongs to the pass that stages the view
// (SolveDelta fills it in from there).
func (a *Applied) Stats() DeltaStats { return a.stats }

// Apply patches base, a view the caller holds, with d, once, and stages the
// patched view for a BatchSolve pass: the one apply of a delta, so a
// rejected delta is Patch's error. When the session pipelined base (a user
// named it as View), the pass carries base's clean components; without
// cached state, or when the delta touches more than the threshold's share of
// edges, it runs the cold pipeline over the patched view. Which path the
// solve takes is decided here and reported by Stats.
func (s *Session) Apply(base *graph.CSR, d *graph.Delta, dopts DeltaOptions) (*Applied, error) {
	return apply(s.lookup(base), base, d, dopts)
}

// apply is Apply with base's cached pipeline, prev, looked up by the caller:
// nil when there is none.
func apply(prev *graphPipeline, base *graph.CSR, d *graph.Delta, dopts DeltaOptions) (*Applied, error) {
	view, info, err := base.Patch(d)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	a := &Applied{staged: stagedView{view: view}}
	ds := &a.stats
	if prev == nil {
		ds.FallbackReason = "no cached state for base graph"
	} else {
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
		return a, nil
	}
	a.staged.prev, a.staged.info = prev, info
	ds.Incremental = true
	for _, oc := range info.OldCompOf {
		if oc >= 0 {
			ds.CleanComponents++
			ds.LanczosItersSaved += prev.comps[oc].iters
		}
	}
	ds.DirtyComponents = len(info.OldCompOf) - ds.CleanComponents
	return a, nil
}
