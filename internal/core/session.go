package core

import (
	"context"
	"sync"

	"copmecs/internal/graph"
)

// Session runs repeated solves over a changing user population while
// caching the per-graph pipeline (compression + cuts). An edge server
// re-planning as users join and leave only pays for Algorithm 2's greedy on
// each solve; the expensive spectral work per distinct application graph
// runs once per Session.
//
// Cache entries are keyed by *graph.Graph identity: callers must not mutate
// a graph after passing it to Solve (Invalidate drops a stale entry if they
// must). A Session is safe for concurrent use.
type Session struct {
	opts Options

	mu sync.Mutex
	// entries holds one immutable record per pipelined graph, whichever call
	// pipelined it: its view and component records — what the next delta
	// patches from — its part templates and compression counters. One map,
	// so a graph is cached or dropped whole.
	entries map[*graph.Graph]*graphPipeline
}

// NewSession returns a session solving with the given options. Options that
// affect the pipeline (engine, LPA, compression, MaxParts) are fixed for
// the session's lifetime; changing them requires a new Session.
func NewSession(opts Options) *Session {
	return &Session{opts: opts, entries: make(map[*graph.Graph]*graphPipeline)}
}

// Solve plans the current population, reusing cached pipeline results for
// graphs seen in earlier solves. ctx bounds the solve like package-level
// Solve's.
func (s *Session) Solve(ctx context.Context, users []UserInput) (*Solution, error) {
	return solveOne(ctx, users, s.opts, s)
}

// CachedGraphs reports how many distinct graphs the session has pipelined.
func (s *Session) CachedGraphs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Invalidate drops the cache entry for g (after the caller mutated it) —
// view and component records together — reporting whether one existed.
func (s *Session) Invalidate(g *graph.Graph) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[g]
	delete(s.entries, g)
	return ok
}

// lookup returns the cached pipeline outcome for g, or nil. A nil session
// caches nothing.
func (s *Session) lookup(g *graph.Graph) *graphPipeline {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[g]
}

// store caches the pipeline outcome for g; gp must not be modified after.
func (s *Session) store(g *graph.Graph, gp *graphPipeline) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[g] = gp
}
