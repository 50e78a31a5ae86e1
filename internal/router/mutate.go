package router

import (
	"encoding/json"
	"fmt"
	"slices"

	"copmecs/internal/graph"
)

// POST /v1/mutate routing. A mutate names its base graph by fingerprint
// and ships only a delta, so the router routes it by the BASE fingerprint
// — the ring owner of the base is the backend that served every prior
// request for that graph and therefore has it interned.
//
// Chained mutations break the pure ring rule: the mutated graph lives on
// the backend that applied the delta (the base's owner), but its new
// fingerprint generally hashes to a different ring arc. The router bridges
// this with a mutation-affinity cache: every successful mutate response
// binds the new fingerprint to the backend that produced it, and a later
// mutate naming that fingerprint as base tries the bound backend first
// (ring replicas stay in the list as failover). A 404 after all attempts
// means no reachable backend holds the base — the client re-seeds with a
// full /v1/solve.

// routeMutate routes a mutate by its BASE fingerprint — all of the body
// the router reads; the rest is forwarded verbatim and validated by the
// backend: the base's ring replicas, with the affinity-bound backend (if
// any) moved to the front. A 200 binds the mutated graph's fingerprint to
// the backend that produced it.
func (rt *Router) routeMutate(body []byte) ([]*backend, func(attemptResult), error) {
	var env struct {
		Base string `json:"base"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, nil, fmt.Errorf("router: %v", err)
	}
	if !graph.ValidFingerprint(env.Base) {
		return nil, nil, fmt.Errorf("router: base must be a %d-character lowercase hex fingerprint", graph.FingerprintLen)
	}
	reps := rt.replicasFor(env.Base)
	if name, ok := rt.affinity.Get(env.Base); ok {
		// Bindings only ever name configured backends (bindAffinity).
		b := rt.byName[name]
		rt.affinityHits.Add(1)
		reps = slices.Insert(slices.DeleteFunc(reps, func(r *backend) bool { return r == b }), 0, b)
	}
	return reps, rt.bindAffinity, nil
}

// bindAffinity records which backend holds the graph a 200 mutate reply
// names.
func (rt *Router) bindAffinity(res attemptResult) {
	var env struct {
		Graph string `json:"graph"`
	}
	if json.Unmarshal(res.body, &env) == nil && graph.ValidFingerprint(env.Graph) {
		rt.affinity.Put(env.Graph, res.b.name)
	}
}
