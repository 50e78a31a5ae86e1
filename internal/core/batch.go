package core

import (
	"context"

	"copmecs/internal/mec"
)

// BatchItem is one independent solve request of a batch: its own user
// population and (optionally) its own MEC system constants. The zero Params
// value inherits the solver options' params (and ultimately mec.Defaults).
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

// BatchSolve solves many independent items in one pass. The results are
// bit-for-bit identical to calling Solve once per item (the exactness table
// enforces this against the map-pipeline oracle); the win is constant-factor:
// every distinct graph across the whole batch is compiled into its own view
// and pipelined once, all of them in one runPipeline pass whose worker pool
// shares one set of scratch, and each is evaluated straight off its view —
// instead of paying per-call pipeline setup N times.
//
// With opts.Workers > 1 the round's jobs — one per component, of every
// graph, each compressing and cutting it — are spread over up to Workers
// goroutines.
func BatchSolve(ctx context.Context, items []BatchItem, opts Options) []BatchResult {
	return solveItems(ctx, items, opts, nil)
}

// BatchSolve is package-level BatchSolve through the session cache: graphs
// already pipelined by earlier solves skip the pipeline pass entirely, and
// graphs pipelined this round are cached for later solves and deltas.
func (s *Session) BatchSolve(ctx context.Context, items []BatchItem) []BatchResult {
	return solveItems(ctx, items, s.opts, s)
}
