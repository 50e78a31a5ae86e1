package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"copmecs/internal/serve"
)

// attemptResult is one backend attempt's outcome, delivered on the
// forward loop's channel.
type attemptResult struct {
	idx      int // position in the replica list (0 = owner)
	status   int
	header   http.Header // the backend's; Content-Type and serve.OutcomeHeader are forwarded
	body     []byte
	b        *backend
	err      error // transport/read failure; nil on any HTTP response
	canceled bool  // err caused by our own context cancel (hedge loser)
	began    time.Time
}

// forwardedHeaders are the backend reply headers a proxied reply carries.
var forwardedHeaders = [...]string{"Content-Type", serve.OutcomeHeader}

// errorJSON renders the router's own error responses in the backends'
// {"error": ...} shape so clients see one vocabulary.
func errorJSON(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(serve.ErrorResponse{Error: msg})
}

// routeFunc is the one step /v1/solve and /v1/mutate differ in: it
// resolves a request body to the replicas to try, in order, plus an
// optional hook that sees the winning attempt of a 200 reply. An error is
// the client's (400).
type routeFunc func(body []byte) (reps []*backend, onOK func(attemptResult), err error)

// proxy is the handler body behind both POST endpoints: method and drain
// checks, the size-capped body read, route, forward (failover + hedging)
// and the response — 502 when every replica failed, the backend's reply
// verbatim otherwise.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, path string, arrivals *atomic.Uint64, route routeFunc) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		errorJSON(w, http.StatusMethodNotAllowed, "router: POST only")
		return
	}
	arrivals.Add(1)
	rt.inflight.Add(1)
	defer rt.inflight.Add(-1)
	if rt.draining.Load() {
		rt.drainRejects.Add(1)
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusServiceUnavailable, "router: draining")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		rt.badRequests.Add(1)
		errorJSON(w, http.StatusBadRequest, "router: unreadable or oversized body")
		return
	}
	reps, onOK, err := route(body)
	if err != nil {
		rt.badRequests.Add(1)
		errorJSON(w, http.StatusBadRequest, err.Error())
		return
	}

	res := rt.forward(r.Context(), path, reps, body)
	if res.err != nil {
		rt.unreachable.Add(1)
		errorJSON(w, http.StatusBadGateway,
			fmt.Sprintf("router: all replicas failed: %v", res.err))
		return
	}
	if res.status == http.StatusOK && onOK != nil {
		onOK(res)
	}
	for _, k := range forwardedHeaders {
		if v := res.header[k]; v != nil {
			w.Header()[k] = v
		}
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// readBody reads the size-capped request body: in one allocation when the
// request declares a Content-Length within the cap, by doubling otherwise
// (MaxBytesReader enforces the cap either way). The buffer is deliberately not
// pooled: forward hands it to every attempt, and a hedged attempt that lost
// may still be sending it after proxy has returned.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	capped := http.MaxBytesReader(w, r.Body, serve.DefaultMaxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= serve.DefaultMaxBodyBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(capped, body)
		return body, err
	}
	return io.ReadAll(capped)
}

// routeSolve routes a solve by its graph fingerprint: the identity cache
// answers for a repeat body, and a miss decodes the body as a backend does,
// into its graph's record, and hashes that.
func (rt *Router) routeSolve(body []byte) ([]*backend, func(attemptResult), error) {
	bodyKey := rt.bodyKeys.Key(body)
	fp, ok := rt.ident.Get(bodyKey)
	if ok {
		rt.identHits.Add(1)
	} else {
		var err error
		if fp, err = serve.FingerprintSolveBody(body, rt.cfg.Limits); err != nil {
			return nil, nil, err
		}
		rt.ident.Put(bodyKey, fp)
		rt.identMisses.Add(1)
	}
	return rt.replicasFor(fp), nil, nil
}

// replicasFor resolves the attempt order for a fingerprint. The ready ring
// decides; if quarantine emptied it, every configured backend becomes a
// last-resort candidate (ordered by the full-membership ring) — a crashed
// fleet member may be back before its probes say so, and trying beats a
// guaranteed 503.
func (rt *Router) replicasFor(fp string) []*backend {
	names := rt.ring.Load().Replicas(fp, maxAttempts)
	if len(names) == 0 {
		names = rt.fullRing.Replicas(fp, maxAttempts)
	}
	reps := make([]*backend, 0, len(names))
	for _, n := range names {
		reps = append(reps, rt.byName[n])
	}
	return reps
}

// forward tries the given replicas (never empty: replicasFor falls back to
// the full-membership ring) in order until one returns a usable response,
// POSTing body to path on each. Three escalation paths share
// the replica list:
//
//   - hard failure (transport error, 503): launch the next replica
//     immediately and report the failure to the prober;
//   - slow primary: after the hedge budget, launch the next replica
//     speculatively while the primary keeps running — first usable
//     response wins, the loser's context is canceled on return;
//   - client gone: every attempt dies with the request context.
func (rt *Router) forward(ctx context.Context, path string, reps []*backend, body []byte) attemptResult {
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps hedge losers and abandoned attempts

	results := make(chan attemptResult, len(reps))
	next := 0
	launch := func() {
		idx := next
		next++
		rt.forwards.Add(1)
		go rt.attempt(actx, reps[idx], idx, path, body, results)
	}
	launch()

	var hedgeC <-chan time.Time
	if b := rt.hedge.budget(); b > 0 && len(reps) > 1 {
		t := time.NewTimer(b)
		defer t.Stop()
		hedgeC = t.C
	}
	hedgedFrom := len(reps) + 1 // attempts at/after this index are hedges
	outstanding := 1
	var lastFail attemptResult
	for {
		select {
		case res := <-results:
			outstanding--
			if res.err == nil && res.status != http.StatusServiceUnavailable {
				if res.idx >= hedgedFrom {
					rt.hedge.won.Add(1)
				}
				rt.hedge.lat.Observe(time.Since(res.began))
				return res
			}
			// Hard failure: report transport errors for fast quarantine
			// (a 503 means draining — the prober will see that itself).
			if res.err != nil && !res.canceled {
				rt.prober.noteFailure(res.b, res.err.Error())
			}
			lastFail = res
			if next < len(reps) {
				rt.failovers.Add(1)
				launch()
				outstanding++
			} else if outstanding == 0 {
				if lastFail.err == nil {
					// Every replica answered 503: surface the last one
					// verbatim (it carries the backend's Retry-After body).
					return lastFail
				}
				return attemptResult{err: lastFail.err}
			}
		case <-hedgeC:
			hedgeC = nil
			if next < len(reps) {
				rt.hedge.fired.Add(1)
				hedgedFrom = next
				launch()
				outstanding++
			}
		case <-ctx.Done():
			return attemptResult{err: ctx.Err()}
		}
	}
}

// attempt sends the raw body to one backend's path and reports the
// outcome. The response body is read fully here so the forward loop can
// race attempts without holding response streams open.
func (rt *Router) attempt(ctx context.Context, b *backend, idx int, path string, body []byte, out chan<- attemptResult) {
	res := attemptResult{idx: idx, b: b, began: time.Now()}
	// failed reports a transport or read failure. If our context died
	// first, this is a loss to a faster replica (or the client hanging up)
	// — our own cancel, not the backend's fault: don't count it against
	// the backend.
	failed := func(err error) {
		res.err = err
		if ctx.Err() != nil {
			res.canceled = true
		} else {
			b.errors.Add(1)
		}
		out <- res
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		out <- res
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.ContentLength = int64(len(body))
	b.forwarded.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		failed(err)
		return
	}
	rb, err := io.ReadAll(io.LimitReader(resp.Body, serve.DefaultMaxBodyBytes))
	_ = resp.Body.Close()
	if err != nil {
		failed(err)
		return
	}
	res.status = resp.StatusCode
	res.header = resp.Header
	res.body = rb
	out <- res
}
