package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Backend health states. A backend is born ready (optimistic start: the
// first probe sweep or the first proxy error corrects a wrong guess within
// one interval), quarantined after QuarantineAfter consecutive failures,
// and re-admitted after ReadmitAfter consecutive probe successes.
const (
	stateReady int = iota
	stateQuarantined
)

// stateName renders a health state for stats and logs.
func stateName(s int) string {
	if s == stateQuarantined {
		return "quarantined"
	}
	return "ready"
}

// backend is the router's per-target record: identity, mutex-guarded probe
// state, and lock-free proxy counters. The mutex guards only the probe
// state machine; the hot forwarding path touches nothing but the atomics.
// Lock discipline: backend.mu is a leaf — no other lock is ever taken
// while holding it.
type backend struct {
	name string
	url  string // base URL, no trailing slash

	mu            sync.Mutex
	state         int
	consecFails   int     // probe/proxy failures since the last success
	consecOKs     int     // probe successes while quarantined
	lastErr       string  // most recent failure, "" after a success
	lastProbeMs   float64 // duration of the most recent probe
	prevForwarded uint64  // forwarded reading at the last rate tick
	prevTime      time.Time
	qps           float64 // forwarded rate over the last probe window

	forwarded atomic.Uint64 // solve attempts sent (incl. hedges, retries)
	errors    atomic.Uint64 // attempts that failed in transport or read
}

// ready reports whether the backend is currently routable.
func (b *backend) ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == stateReady
}

// prober owns the health state machine: it sweeps every backend's
// GET /v1/health on a fixed interval, quarantines after repeated failures,
// and re-admits after repeated successes. The proxy feeds transport errors
// into the same state machine via noteFailure, so a dead backend leaves
// the ring on first contact rather than one probe interval later.
type prober struct {
	backends     []*backend
	client       *http.Client
	interval     time.Duration
	failAfter    int    // consecutive failures before quarantine
	readmitAfter int    // consecutive probe successes before re-admission
	onChange     func() // ring rebuild hook; called with no backend lock held
	logf         func(format string, args ...any)

	checks       atomic.Uint64 // probes issued
	failures     atomic.Uint64 // probe + proxy-reported failures
	quarantines  atomic.Uint64 // ready → quarantined transitions
	readmissions atomic.Uint64 // quarantined → ready transitions

	done chan struct{} // closed when run returns
}

// run sweeps until ctx is canceled. It is the only writer of qps windows;
// state transitions are shared with proxy-reported failures.
func (p *prober) run(ctx context.Context) {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.sweep(ctx)
		}
	}
}

// sweep probes every backend once and refreshes the per-backend QPS window.
func (p *prober) sweep(ctx context.Context) {
	for _, b := range p.backends {
		p.probe(ctx, b)
		p.updateRate(b, time.Now())
	}
}

// probe issues one health check. Success requires HTTP 200 and a body
// reporting status "ready": a draining backend answers 503 and fails here on
// purpose, so restarting backends drain out of the ring before their
// listener disappears. The body is checked too, since it comes from another
// process: a 200 that does not say "ready" is a failure.
func (p *prober) probe(ctx context.Context, b *backend) {
	p.checks.Add(1)
	start := time.Now()
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	ok, errMsg := p.check(pctx, b)
	elapsedMs := float64(time.Since(start)) / float64(time.Millisecond)
	b.mu.Lock()
	b.lastProbeMs = elapsedMs
	b.mu.Unlock()
	if ok {
		p.noteSuccess(b)
	} else {
		p.noteFailure(b, errMsg)
	}
}

// check performs the HTTP leg of one probe.
func (p *prober) check(ctx context.Context, b *backend) (ok bool, errMsg string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/v1/health", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("health status %d", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&h); err != nil {
		return false, fmt.Sprintf("health body: %v", err)
	}
	if h.Status != "ready" {
		return false, fmt.Sprintf("health reports %q", h.Status)
	}
	return true, ""
}

// noteSuccess records one probe success and re-admits a quarantined
// backend once enough consecutive successes accumulate.
func (p *prober) noteSuccess(b *backend) {
	changed := false
	b.mu.Lock()
	b.consecFails = 0
	b.lastErr = ""
	if b.state == stateQuarantined {
		b.consecOKs++
		if b.consecOKs >= p.readmitAfter {
			b.state = stateReady
			b.consecOKs = 0
			changed = true
		}
	}
	b.mu.Unlock()
	if changed {
		p.readmissions.Add(1)
		p.logf("router: backend %s re-admitted", b.name)
		p.onChange()
	}
}

// noteFailure records one failure (probe or proxy transport error) and
// quarantines a ready backend once enough accumulate consecutively. The
// proxy calls this directly so a crashed backend is ejected on the first
// failed forward instead of after the next probe sweep.
func (p *prober) noteFailure(b *backend, msg string) {
	p.failures.Add(1)
	changed := false
	b.mu.Lock()
	b.lastErr = msg
	b.consecOKs = 0
	if b.state == stateReady {
		b.consecFails++
		if b.consecFails >= p.failAfter {
			b.state = stateQuarantined
			changed = true
		}
	}
	b.mu.Unlock()
	if changed {
		p.quarantines.Add(1)
		p.logf("router: backend %s quarantined: %s", b.name, msg)
		p.onChange()
	}
}

// updateRate refreshes the backend's forwarded-QPS window at probe cadence.
func (p *prober) updateRate(b *backend, now time.Time) {
	cur := b.forwarded.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.prevTime.IsZero() {
		if dt := now.Sub(b.prevTime).Seconds(); dt > 0 {
			b.qps = float64(cur-b.prevForwarded) / dt
		}
	}
	b.prevForwarded = cur
	b.prevTime = now
}
