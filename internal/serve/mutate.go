package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// POST /v1/mutate is the dynamic-graph entry point: instead of re-sending
// a whole graph after a topology or weight change, a client names the base
// graph by its fingerprint (returned by a previous solve or mutate) and
// ships only the delta. The session patches the interned base view with it,
// once, and that patched view is what is size-checked, what keys the applied
// graph (its fingerprint is hashed off the view's arrays), what the
// incremental path solves — clean components replay their cached cuts, only
// touched components re-run compression and the eigensolver — and what is
// interned as the next base. No map graph is built. The decision is
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

// resolveMutation is the mutate resolve step, live and on journal replay
// alike: it looks the base's view up in the intern table, patches it with the
// delta through the session, once — a delta Patch rejects is a bad request —
// size-checks the patched view and keys it. It returns the cache key the
// applied graph shares with a plain solve of it and the one member of the
// round that solves it: the patched view, staged, under the request's params
// and overrides; its cell is set on admission. The base is never modified.
func (s *Server) resolveMutation(req *MutateRequest, params mec.Params) (*solveTask, string, error) {
	base, ok := s.graphs.Get(req.Base)
	if !ok {
		return nil, "", ErrUnknownBase
	}
	a, err := s.sess.Apply(base, req.Delta, core.DeltaOptions{})
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	v := a.View()
	if v.NumNodes() == 0 {
		return nil, "", fmt.Errorf("%w: delta removes every node", ErrBadRequest)
	}
	if err := s.cfg.Limits.check(v.NumNodes(), v.NumEdges()); err != nil {
		return nil, "", fmt.Errorf("mutated graph: %w", err)
	}
	fp, err := v.Fingerprint()
	if err != nil {
		return nil, "", err
	}
	user := userInputOf(req.UserOverrides)
	user.View = v
	return &solveTask{
		mutate: req, user: user,
		params: params, pkey: paramsDigest(params), fp: fp, mult: 1, applied: a,
	}, cacheKey(fp, params, req.UserOverrides), nil
}

// mutate is /v1/mutate behind handle. Its resolve step decodes the body and
// resolves the mutation; from the applied graph's cache key on it is the
// solve lifecycle, except that the leader runs its round of one through
// runRound inline instead of joining a batcher round. Its cell makes
// identical concurrent mutates — and a /v1/solve of the same graph and
// params — run once.
func (s *Server) mutate(ctx context.Context, body []byte) (reply, error) {
	req, err := DecodeMutateBody(body, s.cfg.Limits)
	if err != nil {
		return reply{}, err
	}
	params, err := s.paramsFor(req.Params)
	if err != nil {
		return reply{}, err
	}
	t, key, err := s.resolveMutation(req, params)
	if err != nil {
		return reply{}, err
	}
	// A repeat mutation (same base, same delta, same params) whose decision
	// is still cached: answer without solving. The applied graph is
	// re-interned so chained mutations keep resolving even if the solve
	// that populated the cache happened before a restart. An intern that
	// inserts is journaled as the round of one it replays as, so replay
	// re-interns it too; the common warm path, graph still interned, never
	// journals.
	if ent, ok := s.cache.Get(key); ok {
		if _, interned := s.graphs.Get(t.fp); !interned {
			_, seg, ok := s.journal([]*solveTask{t}, nil)
			s.graphs.GetOrPut(t.fp, t.applied.View())
			s.release(seg, ok)
		}
		return reply{o: outHit, body: mutateReply(ent.hit, t.fp, req.Base, core.DeltaStats{}, true, false)}, nil
	}

	p, leader, err := s.admit(key, nil)
	if err != nil {
		return reply{}, err
	}
	o := outDedup
	var ds core.DeltaStats // the pipeline's report, when this request's round ran it
	if leader {
		// Accepted work no longer depends on its client: followers may be
		// attached, so a hang-up must not cancel the solve. Parked across
		// it: an inline round joins no batcher round and must not hold the
		// ones /v1/solve traffic is forming open.
		t.p = p
		s.park()
		rec := scratchPool.Get().(*[]byte)
		putScratch(rec, s.runRound(context.WithoutCancel(ctx), []*solveTask{t}, *rec))
		s.unpark()
		o = outSolved
		if t.staged() {
			ds, o = t.applied.Stats(), outDelta
			if ds.ColdFallback {
				o = outColdFallback
			}
		}
	}
	hit, err := s.await(ctx, p)
	if err != nil {
		return reply{}, err
	}
	return reply{o: o, body: mutateReply(hit, t.fp, req.Base, ds, false, !leader)}, nil
}

// mutateReply is writeJSON's encoding of one mutate outcome's
// MutateResponse, rewritten from the decision's rendered hit: fp and base
// (validated hex), the hit's members after its own graph, the flags and the
// pipeline's report ds — zero on a cache hit, for a deduped follower and when
// the round solved an interned instance of the same graph instead.
func mutateReply(hit []byte, fp, base string, ds core.DeltaStats, cached, deduped bool) [3][]byte {
	b := make([]byte, 0, len(fp)+len(base)+256)
	b = append(append(append(b, `{"graph":"`...), fp...), `","base":"`...)
	b = append(append(b, base...), `",`...)
	head := len(b)
	b = strconv.AppendBool(append(appendFlags(b, cached, deduped), `,"incremental":`...), ds.Incremental)
	b = strconv.AppendBool(append(b, `,"cold_fallback":`...), ds.ColdFallback)
	if ds.FallbackReason != "" {
		b = appendString(append(b, `,"fallback_reason":`...), ds.FallbackReason)
	}
	b = strconv.AppendInt(append(b, `,"clean_components":`...), int64(ds.CleanComponents), 10)
	b = strconv.AppendInt(append(b, `,"dirty_components":`...), int64(ds.DirtyComponents), 10)
	b = strconv.AppendInt(append(b, `,"touched_edges":`...), int64(ds.TouchedEdges), 10)
	b = strconv.AppendInt(append(b, `,"lanczos_iters_saved":`...), int64(ds.LanczosItersSaved), 10)
	b = append(b, "}\n"...)
	// The hit's members from "remote" on: a JSON string escapes its quotes,
	// so the key cannot occur inside the graph member before it.
	from := bytes.Index(hit, []byte(`"remote":`))
	return [3][]byte{b[:head:head], hit[from : len(hit)-len(hitTail)], b[head:]}
}
