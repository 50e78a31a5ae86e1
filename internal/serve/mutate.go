package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// POST /v1/mutate is the dynamic-graph entry point: instead of re-sending
// a whole graph after a topology or weight change, a client names the base
// graph by its fingerprint (returned by a previous solve or mutate) and
// ships only the delta. The server applies the delta to a clone of the
// interned base, once; the session patches the base's cached view with it,
// once, and that patched view is both what keys the applied graph (its
// fingerprint is hashed off the view's arrays) and what the incremental path
// solves — clean components replay their cached cuts, only touched
// components re-run compression and the eigensolver. The decision is
// published under the mutated graph's fingerprint, so follow-up /v1/solve
// and /v1/mutate calls (on any client) find the new graph warm. This file
// holds the endpoint's wire types, decode/validate, resolve step and
// response shaping; the request lifecycle is the one in serve.go.
//
// The decision is bit-for-bit what a cold /v1/solve of the mutated graph
// would produce (the exactness invariant of core.SolveDelta), so the
// solution cache never distinguishes how an entry was computed.

// ErrUnknownBase is returned when the named base fingerprint is not
// interned on this server; mapped to 404.
var ErrUnknownBase = errors.New("serve: unknown base graph fingerprint")

// MutateRequest is the POST /v1/mutate body: the base graph fingerprint,
// the delta to apply, and the same optional overrides a solve request
// carries (they shape the round the mutated graph is solved in).
type MutateRequest struct {
	// Base is the canonical fingerprint of the graph to mutate (required;
	// the graph must be interned on this server from an earlier request).
	Base string `json:"base"`
	// Delta is the mutation batch (required; see graph.Delta for the
	// application order).
	Delta *graph.Delta `json:"delta"`
	UserOverrides
}

// MutateResponse is the POST /v1/mutate 200 body: the mutated graph's
// fingerprint (the handle for chained mutations), the offloading decision
// for it, and what the incremental pipeline did.
type MutateResponse struct {
	// Graph is the mutated graph's canonical fingerprint.
	Graph string `json:"graph"`
	// Base echoes the request's base fingerprint.
	Base string `json:"base"`
	SolveResponse
	// Incremental reports the delta-patched pipeline ran (false on a cache
	// hit or a cold fallback).
	Incremental bool `json:"incremental"`
	// ColdFallback reports the solve ran the cold pipeline; FallbackReason
	// says why.
	ColdFallback   bool   `json:"cold_fallback"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	// CleanComponents replayed cached cuts; DirtyComponents were re-cut.
	CleanComponents int `json:"clean_components"`
	DirtyComponents int `json:"dirty_components"`
	// TouchedEdges is the delta's footprint on the patched view.
	TouchedEdges int `json:"touched_edges"`
	// LanczosItersSaved is the eigensolver work the replay avoided.
	LanczosItersSaved int `json:"lanczos_iters_saved"`
}

// scan is SolveRequest.scan for a /v1/mutate body.
func (req *MutateRequest) scan(body []byte) bool {
	s := graph.NewScanner(body)
	return s.Members(func(key []byte) uint8 {
		switch string(key) {
		case "base":
			return s.String(&req.Base, 1)
		case "delta":
			var ok bool
			if req.Delta, ok = s.Delta(); ok {
				return 64
			}
			return 0
		}
		return req.scanMember(s, key)
	}) && s.Done()
}

// DecodeMutateRequest is DecodeMutateBody over a reader, read to its end.
func DecodeMutateRequest(r io.Reader, limits DecodeLimits) (*MutateRequest, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return DecodeMutateBody(body, limits)
}

// DecodeMutateBody decodes one JSON mutate body, rejecting malformed
// JSON, unknown fields, missing/invalid base fingerprints, missing deltas
// and deltas whose operation count exceeds the edge limit. Every error
// wraps ErrBadRequest. Graph-level validation (node existence, negative
// weights) happens when the delta is applied. body is not retained.
func DecodeMutateBody(body []byte, limits DecodeLimits) (*MutateRequest, error) {
	var req MutateRequest
	if !req.scan(body) {
		req = MutateRequest{}
		if err := decodeStrict(body, &req); err != nil {
			return nil, err
		}
	}
	if err := validateMutate(&req, limits); err != nil {
		return nil, err
	}
	return &req, nil
}

// validateMutate applies the decode-level checks shared by the HTTP path
// and journal-record replay.
func validateMutate(req *MutateRequest, limits DecodeLimits) error {
	if !graph.ValidFingerprint(req.Base) {
		return fmt.Errorf("%w: base fingerprint must be %d lowercase hex characters", ErrBadRequest, graph.FingerprintLen)
	}
	if req.Delta == nil {
		return fmt.Errorf("%w: request has no delta", ErrBadRequest)
	}
	if ops, limit := req.Delta.Ops(), limits.withDefaults().MaxEdges; ops > limit {
		return fmt.Errorf("%w: %w: %d delta operations (limit %d)", ErrBadRequest, ErrTooLarge, ops, limit)
	}
	return req.validate()
}

// mutation is one resolved /v1/mutate: the request and its params, the base
// with the delta applied as the session will solve it, and the identity the
// applied graph shares with a plain solve of it — its fingerprint fp and the
// cache key.
type mutation struct {
	req     *MutateRequest
	params  mec.Params
	applied *core.Applied
	fp, key string
}

// resolveMutation is the mutate resolve step, live and on journal replay
// alike: it looks the base up in the intern table, applies the delta to a
// clone of it, once, and size-checks the result; the session then builds the
// view it will solve — base's cached view patched by the delta, or the
// applied graph compiled — and the applied graph is keyed off that view. The
// base is never modified.
func (s *Server) resolveMutation(req *MutateRequest, params mec.Params) (*mutation, error) {
	base, ok := s.graphs.Get(req.Base)
	if !ok {
		return nil, ErrUnknownBase
	}
	applied := base.Clone()
	if err := req.Delta.Apply(applied); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if applied.NumNodes() == 0 {
		return nil, fmt.Errorf("%w: delta removes every node", ErrBadRequest)
	}
	if err := s.cfg.Limits.check(applied); err != nil {
		return nil, fmt.Errorf("mutated graph: %w", err)
	}
	a, err := s.sess.Apply(base, req.Delta, applied, core.DeltaOptions{})
	if err != nil {
		return nil, err
	}
	fp, err := a.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &mutation{req: req, params: params, applied: a, fp: fp, key: cacheKey(fp, params, req.UserOverrides)}, nil
}

// mutate is /v1/mutate behind handle. Its resolve step decodes the body and
// resolves the mutation; from the applied graph's cache key on it is the
// solve lifecycle, except that the leader solves inline, one user over the
// view the resolve step built. Its cell makes identical concurrent mutates —
// and a /v1/solve of the same graph and params — run once.
func (s *Server) mutate(ctx context.Context, w http.ResponseWriter, body []byte) error {
	req, err := DecodeMutateBody(body, s.cfg.Limits)
	if err != nil {
		return err
	}
	params, err := s.paramsFor(req.Params)
	if err != nil {
		return err
	}
	m, err := s.resolveMutation(req, params)
	if err != nil {
		return err
	}
	// A repeat mutation (same base, same delta, same params) whose decision
	// is still cached: answer without solving. The applied graph is
	// re-interned so chained mutations keep resolving even if the solve
	// that populated the cache happened before a restart. An intern that
	// inserts is journaled, so replay re-interns it too; the common warm
	// path, graph still interned, never journals.
	if ent, ok := s.lookup(m.key); ok {
		if _, interned := s.graphs.Get(m.fp); !interned {
			release := s.journalMutate(s.cfg.Journal, m)
			s.graphs.GetOrPut(m.fp, m.applied.Graph)
			release()
		}
		s.st.mutateHits.Add(1)
		writeJSON(w, http.StatusOK, mutateResponseFor(req, m.fp, ent.dec, nil, true, false))
		return nil
	}

	p, leader, err := s.admit(m.key, nil)
	if err != nil {
		return err
	}
	var ds *core.DeltaStats
	if leader {
		// Accepted work no longer depends on its client: followers may be
		// attached, so a hang-up must not cancel the solve. Parked across
		// it: an inline solve joins no round and must not hold the ones
		// /v1/solve traffic is forming open.
		s.park()
		ds = s.solveMutation(context.WithoutCancel(ctx), p, s.cfg.Journal, m)
		s.unpark()
	}
	dec, err := s.await(ctx, p, leader)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, mutateResponseFor(req, m.fp, dec, ds, false, !leader))
	return nil
}

// solveMutation is the mutate leader's inline solve, and Recover's for a
// mutate record: one single-user round over the view m was resolved to,
// its applied graph interned under m.fp, its decision or error published
// through finish. With a journal (nil on replay) m's request is appended as a
// recMutate first and released after finish.
func (s *Server) solveMutation(ctx context.Context, p *pending, journal Journal, m *mutation) *core.DeltaStats {
	defer s.journalMutate(journal, m)()
	ctx, cancel := context.WithTimeout(ctx, DefaultSolveTimeout)
	defer cancel()
	next := m.applied.Graph
	user := userInputOf(&SolveRequest{Graph: next, UserOverrides: m.req.UserOverrides})
	sol, ds, err := s.sess.SolveApplied(ctx, m.applied, []core.UserInput{user}, m.params)
	if err != nil {
		s.st.mutateErrors.Add(1)
		if !errors.Is(err, context.DeadlineExceeded) {
			s.st.solveErrors.Add(1)
		}
		s.finish(p, nil, err)
		return nil
	}
	// Intern the applied graph so its captured pipeline state stays
	// reachable; if the fingerprint was already interned (a /v1/solve of the
	// same graph got there first), drop the loser's state with the clone.
	if canon, _ := s.graphs.GetOrPut(m.fp, next); canon != next {
		s.sess.Invalidate(next)
	}
	s.st.deltaSolves.Add(1)
	if ds.ColdFallback {
		s.st.coldFallbacks.Add(1)
	}
	s.st.lanczosItersSaved.Add(uint64(ds.LanczosItersSaved))
	s.finish(p, decisionFor(m.fp, sol, 0, 1), nil)
	return ds
}

// journalMutate appends m's request to journal as a recMutate and returns
// the call that releases it; with no journal (replay), or when the append
// fails, there is nothing to release.
func (s *Server) journalMutate(journal Journal, m *mutation) (release func()) {
	if journal == nil {
		return func() {}
	}
	rec, err := encodeMutate(m.req, m.params)
	var seg uint64
	if err == nil {
		seg, err = journal.Append(rec)
	}
	if err != nil {
		s.journalFailed(err)
		return func() {}
	}
	return func() { journal.Applied(seg) }
}

// mutateResponseFor assembles the wire form of one mutate outcome. ds is
// nil on a cache hit and for a deduped follower (this request did not run
// the pipeline).
func mutateResponseFor(req *MutateRequest, newFp string, dec *Decision, ds *core.DeltaStats, cached, deduped bool) MutateResponse {
	resp := MutateResponse{
		Graph:         newFp,
		Base:          req.Base,
		SolveResponse: solveResponseFor(dec, cached, deduped),
	}
	if ds != nil {
		resp.Incremental = ds.Incremental
		resp.ColdFallback = ds.ColdFallback
		resp.FallbackReason = ds.FallbackReason
		resp.CleanComponents = ds.CleanComponents
		resp.DirtyComponents = ds.DirtyComponents
		resp.TouchedEdges = ds.TouchedEdges
		resp.LanczosItersSaved = ds.LanczosItersSaved
	}
	return resp
}
