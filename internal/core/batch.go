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
// and pipelined once, all of them in one runPipeline pass, and each is
// evaluated straight off its view — instead of paying per-call pipeline
// setup N times.
//
// With opts.Workers > 1 every phase of the round spreads its units over up
// to Workers goroutines, each owning its own scratch: compiling one graph,
// compressing and cutting one component, assembling one graph's templates,
// then finishing one item (greedy, placements, evaluation). A phase of one
// unit runs inline on the caller, so a round of one graph and one item
// spreads only its components.
func BatchSolve(ctx context.Context, items []BatchItem, opts Options) []BatchResult {
	return solveItems(ctx, items, opts, nil, nil)
}

// BatchSolve is package-level BatchSolve through the session cache: graphs
// already pipelined by earlier solves skip the pipeline pass entirely, and
// graphs pipelined this round are cached for later solves and deltas.
//
// A user the session has not cached whose View is some applied a's View is
// pipelined over it — carrying base's clean components unless a took the
// cold path — in the same pass and worker pool as the round's other graphs,
// and cached under the user's key like every other entry. An Applied whose
// View no item names is ignored.
func (s *Session) BatchSolve(ctx context.Context, items []BatchItem, applied ...*Applied) []BatchResult {
	return solveItems(ctx, items, s.opts, s, applied)
}
