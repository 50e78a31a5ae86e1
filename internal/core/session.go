package core

import (
	"context"
	"sync"
)

// Session runs repeated solves over a changing user population while
// caching the per-graph pipeline (compression + cuts). An edge server
// re-planning as users join and leave only pays for Algorithm 2's greedy on
// each solve; the expensive spectral work per distinct application graph
// runs once per Session.
//
// Cache entries are keyed by pointer identity — a user's *graph.Graph, or its
// *graph.CSR when it names only a view (UserInput.View): callers must not
// mutate a graph after passing it to Solve (Invalidate drops a stale entry if
// they must). A Session is safe for concurrent use.
type Session struct {
	opts Options

	mu sync.Mutex
	// entries holds one immutable record per pipelined graph, whichever call
	// pipelined it: its view and component records — what the next delta
	// patches from — its part templates and compression counters. One map,
	// so a graph is cached or dropped whole.
	entries map[any]*graphPipeline
}

// NewSession returns a session solving with the given options. Options that
// affect the pipeline (engine, LPA, compression, MaxParts) are fixed for
// the session's lifetime; changing them requires a new Session.
func NewSession(opts Options) *Session {
	return &Session{opts: opts, entries: make(map[any]*graphPipeline)}
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

// Invalidate drops the cache entry keyed by key — the *graph.Graph or
// *graph.CSR a user named (after the caller mutated it, or to release it) —
// view and component records together, reporting whether one existed.
func (s *Session) Invalidate(key any) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	delete(s.entries, key)
	return ok
}

// lookup returns the cached pipeline outcome under key, or nil. A nil
// session caches nothing.
func (s *Session) lookup(key any) *graphPipeline {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key]
}

// store caches the pipeline outcome under key; gp must not be modified after.
func (s *Session) store(key any, gp *graphPipeline) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = gp
}
