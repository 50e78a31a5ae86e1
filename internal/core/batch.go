package core

import (
	"context"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// BatchItem is one independent solve request of a batch: its own user
// population and (optionally) its own MEC system constants. The zero Params
// value inherits the solver options' params (and ultimately mec.Defaults),
// exactly as SolveWithParams resolves them.
type BatchItem struct {
	Users  []UserInput
	Params mec.Params
}

// BatchResult is one item's outcome: a solution or that item's error. Items
// fail independently — one invalid request does not poison the round.
type BatchResult struct {
	Solution *Solution
	Err      error
}

// BatchSolve solves many independent items in one fused pass. The results
// are bit-for-bit identical to calling Solve once per item (the exactness
// table enforces this against the map-pipeline oracle); the win is
// constant-factor: every distinct graph across the whole batch is compiled
// into one fused CSR mega-instance, compressed by a single LPA pass, cut
// with the arena-backed eigensolvers, and evaluated straight off the fused
// arrays — instead of paying per-graph pipeline setup N times.
//
// With opts.Workers > 1 the round's cut jobs — one per dirty component, of
// every graph — are spread over up to Workers goroutines.
func BatchSolve(ctx context.Context, items []BatchItem, opts Options) []BatchResult {
	return solveItems(ctx, items, opts, nil)
}

// BatchSolve is package-level BatchSolve through the session cache: graphs
// already pipelined by earlier solves skip the fused pass entirely, and
// graphs fused this round are cached for later solves.
func (s *Session) BatchSolve(ctx context.Context, items []BatchItem) []BatchResult {
	return solveItems(ctx, items, s.opts, s)
}

// fusedUserState is Placement.State computed off the fused CSR: the local
// and remote work sums walk the graph's node span ascending (the same order
// as Graph.Nodes), and the cut sum walks stored edges u ascending, v>u
// ascending (the same order Graph.Edges sorts into), so every float lands in
// the same order State produces. parts are the user's parts; their idx
// slices index the graph span. mark is shared scratch, clean on entry and
// cleaned before return.
func fusedUserState(f *graph.FusedCSR, k int, parts []Part, pl mec.Placement, mark []bool) mec.UserState {
	var st mec.UserState
	st.DeviceCompute = pl.DeviceCompute
	st.Bandwidth = pl.Bandwidth
	st.PowerTransmit = pl.PowerTransmit

	for pi := range parts {
		if parts[pi].Remote {
			for _, li := range parts[pi].idx {
				mark[li] = true
			}
		}
	}
	v := f.View
	base := f.NodeBase[k]
	n := f.NodeBase[k+1] - base
	nodeW := v.NodeWeights()
	for li := int32(0); li < n; li++ {
		w := nodeW[base+li]
		if mark[li] {
			st.RemoteWork += w
		} else {
			st.LocalWork += w
		}
	}
	for li := int32(0); li < n; li++ {
		tgt, w := v.Adj(base + li)
		for e, fv := range tgt {
			lv := fv - base
			if lv > li && mark[li] != mark[lv] {
				st.CutWeight += w[e]
			}
		}
	}
	for pi := range parts {
		if parts[pi].Remote {
			for _, li := range parts[pi].idx {
				mark[li] = false
			}
		}
	}
	return st
}
