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
// interned base, once, and the session solves that applied graph through its
// incremental path — clean components replay their cached cuts, only touched
// components re-run compression and the eigensolver — and publishes the
// decision under the mutated graph's fingerprint, so follow-up /v1/solve and /v1/mutate calls
// (on any client) find the new graph warm. This file holds the endpoint's
// wire types, decode/validate, resolve step and response shaping; the
// request lifecycle is the one in serve.go.
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

// mutatedRequest applies req's delta to base and wraps the result as the
// synthetic solve request whose cache identity the mutate shares with a
// plain solve of the mutated graph. base is never modified.
func mutatedRequest(req *MutateRequest, base *graph.Graph, limits DecodeLimits) (*SolveRequest, error) {
	mutated := base.Clone()
	if err := req.Delta.Apply(mutated); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if mutated.NumNodes() == 0 {
		return nil, fmt.Errorf("%w: delta removes every node", ErrBadRequest)
	}
	if err := limits.check(mutated); err != nil {
		return nil, fmt.Errorf("mutated graph: %w", err)
	}
	return &SolveRequest{Graph: mutated, UserOverrides: req.UserOverrides}, nil
}

// mutate is /v1/mutate behind handle. Its resolve step decodes the body,
// looks the base up in the intern table and applies the delta to a clone;
// from the mutated graph's cache key on it is the solve lifecycle, except
// that the leader bypasses the micro-batcher: a mutation names one user's
// changed graph and is solved inline as a single-user round through the
// session's delta path, which is where the cached cuts live. The cell it
// registers makes identical concurrent mutates — and a /v1/solve of the
// same mutated graph and params — run once: the rest answer deduped with
// the same single-user decision they would have computed.
func (s *Server) mutate(ctx context.Context, w http.ResponseWriter, body []byte) error {
	req, err := DecodeMutateBody(body, s.cfg.Limits)
	if err != nil {
		return err
	}
	params, err := s.paramsFor(req.Params)
	if err != nil {
		return err
	}
	base, ok := s.graphs.Get(req.Base)
	if !ok {
		return ErrUnknownBase
	}
	sreq, err := mutatedRequest(req, base, s.cfg.Limits)
	if err != nil {
		return err
	}
	key, newFp, err := requestKey(sreq, params)
	if err != nil {
		return err
	}
	// A repeat mutation (same base, same delta, same params) whose decision
	// is still cached: answer without solving. The mutated graph is
	// re-interned so chained mutations keep resolving even if the solve
	// that populated the cache happened before a restart.
	if ent, ok := s.lookup(key); ok {
		s.graphs.GetOrPut(newFp, sreq.Graph)
		s.st.mutateHits.Add(1)
		writeJSON(w, http.StatusOK, mutateResponseFor(req, newFp, ent.dec, nil, true, false))
		return nil
	}

	jrec := s.journalRecord(func() ([]byte, error) { return encodeMutate(req, params) })
	p, leader, err := s.admit(key, jrec, nil)
	if err != nil {
		return err
	}
	var ds *core.DeltaStats
	if leader {
		// Accepted work no longer depends on its client: followers may be
		// attached and the record is journaled, so a hang-up must not
		// cancel the solve. Parked across it: an inline solve joins no round
		// and must not hold the ones /v1/solve traffic is forming open.
		s.park()
		ds = s.solveMutation(context.WithoutCancel(ctx), p, base, req.Delta, sreq, newFp, params)
		s.unpark()
	}
	dec, err := s.await(ctx, p, leader)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, mutateResponseFor(req, newFp, dec, ds, false, !leader))
	return nil
}

// solveMutation is the mutate leader's inline solve, and Recover's for a
// replayed mutate record: one single-user round through the session's delta
// path over sreq.Graph — base with d already applied — that graph interned
// under newFp, and the outcome — a decision shaped exactly like a /v1/solve
// one, or the error — published to the cell through finish.
func (s *Server) solveMutation(ctx context.Context, p *pending, base *graph.Graph, d *graph.Delta, sreq *SolveRequest, newFp string, params mec.Params) *core.DeltaStats {
	ctx, cancel := context.WithTimeout(ctx, DefaultSolveTimeout)
	defer cancel()
	next := sreq.Graph
	sol, ds, err := s.sess.SolveApplied(ctx, base, d, next, []core.UserInput{userInputOf(sreq)}, core.DeltaOptions{}, params)
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
	if canon, _ := s.graphs.GetOrPut(newFp, next); canon != next {
		s.sess.Invalidate(next)
	}
	s.st.deltaSolves.Add(1)
	if ds.ColdFallback {
		s.st.coldFallbacks.Add(1)
	}
	s.st.lanczosItersSaved.Add(uint64(ds.LanczosItersSaved))
	s.finish(p, decisionFor(newFp, sol, 0, 1), nil)
	return ds
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
