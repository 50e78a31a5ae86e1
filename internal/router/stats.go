package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"copmecs/internal/serve"
)

// BackendStatus is one fleet member's row in the router stats document.
type BackendStatus struct {
	// Name is the backend's ring identity.
	Name string `json:"name"`
	// URL is the backend's base URL.
	URL string `json:"url"`
	// State is "ready" or "quarantined".
	State string `json:"state"`
	// ConsecutiveFailures is the current probe/proxy failure streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// ConsecutiveSuccesses is the probe success streak while quarantined.
	ConsecutiveSuccesses int `json:"consecutive_successes"`
	// LastError is the most recent failure, empty after a success.
	LastError string `json:"last_error,omitempty"`
	// LastProbeMs is the most recent health check's duration.
	LastProbeMs float64 `json:"last_probe_ms"`
	// Forwarded counts solve attempts sent to this backend.
	Forwarded uint64 `json:"forwarded"`
	// Errors counts attempts that failed in transport or body read.
	Errors uint64 `json:"errors"`
	// QPS is the forwarded rate over the last probe window.
	QPS float64 `json:"qps"`
}

// RingStatus describes the live ring in the router stats document.
type RingStatus struct {
	// Members are the ready backends currently on the ring.
	Members []string `json:"members"`
	// Ownership is each member's fraction of the hash circle.
	Ownership map[string]float64 `json:"ownership"`
}

// ProbeStatus aggregates the prober in the router stats document.
type ProbeStatus struct {
	// IntervalMs is the sweep period.
	IntervalMs float64 `json:"interval_ms"`
	// Checks counts probes issued.
	Checks uint64 `json:"checks"`
	// Failures counts probe and proxy-reported failures.
	Failures uint64 `json:"failures"`
	// Quarantines counts ready → quarantined transitions.
	Quarantines uint64 `json:"quarantines"`
	// Readmissions counts quarantined → ready transitions.
	Readmissions uint64 `json:"readmissions"`
}

// HedgeStatus aggregates the hedger in the router stats document.
type HedgeStatus struct {
	// Enabled reports whether speculative duplicates may fire.
	Enabled bool `json:"enabled"`
	// BudgetMs is the current hedge trigger delay.
	BudgetMs float64 `json:"budget_ms"`
	// P99Ms is the observed forward-latency p99 feeding the budget, as the
	// upper bound of its millisecond bucket (a sub-millisecond p99 reads 1).
	P99Ms float64 `json:"p99_ms"`
	// Fired counts speculative duplicates launched.
	Fired uint64 `json:"fired"`
	// Won counts hedges that produced the winning response.
	Won uint64 `json:"won"`
}

// RouterStatus is the "router" section of the stats document: everything
// the routing tier itself did, as opposed to what the backends did.
type RouterStatus struct {
	// Requests counts POST /v1/solve arrivals at the router.
	Requests uint64 `json:"requests"`
	// Forwards counts attempts sent to backends (≥ Requests: failovers
	// and hedges fan one request into several attempts).
	Forwards uint64 `json:"forwards"`
	// Failovers counts attempts relaunched after a hard failure.
	Failovers uint64 `json:"failovers"`
	// BadRequests counts 400 responses issued by the router itself.
	BadRequests uint64 `json:"bad_requests"`
	// Unreachable counts 502 responses after exhausting all replicas.
	Unreachable uint64 `json:"unreachable"`
	// DrainRejects counts 503 responses while draining.
	DrainRejects uint64 `json:"drain_rejects"`
	// IdentHits counts bodies routed via the identity cache (no decode).
	IdentHits uint64 `json:"ident_hits"`
	// IdentMisses counts bodies JSON-decoded to learn their fingerprint.
	IdentMisses uint64 `json:"ident_misses"`
	// IdentSize is the identity cache's current entry count.
	IdentSize int `json:"ident_size"`
	// Mutates counts POST /v1/mutate arrivals at the router.
	Mutates uint64 `json:"mutates"`
	// AffinityHits counts mutates whose base was routed through the
	// mutation-affinity cache rather than by ring position alone.
	AffinityHits uint64 `json:"affinity_hits"`
	// Draining reports whether the router has begun graceful drain.
	Draining bool `json:"draining"`
	// UptimeS is seconds since the router was constructed.
	UptimeS float64 `json:"uptime_s"`
	// Ring describes the live hash ring.
	Ring RingStatus `json:"ring"`
	// Probes aggregates the health prober.
	Probes ProbeStatus `json:"probes"`
	// Hedges aggregates the hedger.
	Hedges HedgeStatus `json:"hedges"`
	// Backends lists every configured backend's live status.
	Backends []BackendStatus `json:"backends"`
}

// FleetStatus is the "fleet" section: the backends' stats documents that
// answered the fetch, added by serve.Stats.Add — arrivals and outcomes
// summed, latency histograms merged bucket-wise (all backends share the
// serve package's bucket bounds) — and every request-fate field derived
// from the sum, as each backend derives its own.
type FleetStatus struct {
	// BackendsReporting is how many backends answered the stats fetch.
	BackendsReporting int `json:"backends_reporting"`
	// Fate sums the backends' flat request-fate fields.
	serve.Fate
	// CacheHits sums backend solution-cache hits.
	CacheHits uint64 `json:"cache_hits"`
	// CacheMisses sums backend solution-cache misses.
	CacheMisses uint64 `json:"cache_misses"`
	// BodyHits sums backend raw-body key fast-path hits.
	BodyHits uint64 `json:"body_hits"`
	// Incremental is the backends' /v1/mutate sections summed.
	Incremental serve.IncrementalStats `json:"incremental"`
	// Latency is the bucket-wise merge of the backends' histograms.
	Latency serve.HistogramSnapshot `json:"latency_ms"`
	// Outcomes sums the backends' outcome arrays.
	Outcomes serve.Outcomes `json:"outcomes"`
	// LatencyByClass merges the backends' per-class histograms.
	LatencyByClass map[string]serve.HistogramSnapshot `json:"latency_by_class"`
}

// fleetOf renders the sum of n backends' stats documents.
func fleetOf(n int, sum *serve.Stats) FleetStatus {
	return FleetStatus{
		BackendsReporting: n,
		Fate:              sum.Fate,
		CacheHits:         sum.Cache.Hits,
		CacheMisses:       sum.Cache.Misses,
		BodyHits:          sum.Cache.BodyHits,
		Incremental:       sum.Incremental,
		Latency:           sum.Latency,
		Outcomes:          sum.Outcomes,
		LatencyByClass:    sum.LatencyByClass,
	}
}

// StatsDocument is the full GET /v1/stats response of the router: its own
// routing sections, the fleet-wide aggregate, and each reporting backend's
// raw stats document for drill-down.
type StatsDocument struct {
	// Router is the routing tier's own counters and state.
	Router RouterStatus `json:"router"`
	// Fleet is the cross-backend aggregate.
	Fleet FleetStatus `json:"fleet"`
	// BackendStats holds each reporting backend's unmodified stats
	// document, keyed by backend name.
	BackendStats map[string]json.RawMessage `json:"backend_stats"`
}

// status snapshots one backend's probe state and counters.
func (b *backend) status() BackendStatus {
	forwarded := b.forwarded.Load()
	errs := b.errors.Load()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStatus{
		Name:                 b.name,
		URL:                  b.url,
		State:                stateName(b.state),
		ConsecutiveFailures:  b.consecFails,
		ConsecutiveSuccesses: b.consecOKs,
		LastError:            b.lastErr,
		LastProbeMs:          b.lastProbeMs,
		Forwarded:            forwarded,
		Errors:               errs,
		QPS:                  b.qps,
	}
}

// routerStatus assembles the "router" section.
func (rt *Router) routerStatus() RouterStatus {
	ring := rt.ring.Load()
	rs := RouterStatus{
		Requests:     rt.requests.Load(),
		Forwards:     rt.forwards.Load(),
		Failovers:    rt.failovers.Load(),
		BadRequests:  rt.badRequests.Load(),
		Unreachable:  rt.unreachable.Load(),
		DrainRejects: rt.drainRejects.Load(),
		IdentHits:    rt.identHits.Load(),
		IdentMisses:  rt.identMisses.Load(),
		IdentSize:    rt.ident.Len(),
		Mutates:      rt.mutates.Load(),
		AffinityHits: rt.affinityHits.Load(),
		Draining:     rt.draining.Load(),
		UptimeS:      time.Since(rt.begin).Seconds(),
		Ring: RingStatus{
			Members:   ring.Members(),
			Ownership: ring.Ownership(),
		},
		Probes: ProbeStatus{
			IntervalMs:   float64(rt.cfg.ProbeInterval) / float64(time.Millisecond),
			Checks:       rt.prober.checks.Load(),
			Failures:     rt.prober.failures.Load(),
			Quarantines:  rt.prober.quarantines.Load(),
			Readmissions: rt.prober.readmissions.Load(),
		},
		Hedges: HedgeStatus{
			Enabled:  rt.hedge.enabled,
			BudgetMs: float64(rt.hedge.budget()) / float64(time.Millisecond),
			P99Ms:    rt.hedge.p99(),
			Fired:    rt.hedge.fired.Load(),
			Won:      rt.hedge.won.Load(),
		},
	}
	for _, b := range rt.backends {
		rs.Backends = append(rs.Backends, b.status())
	}
	return rs
}

// fetchStats retrieves one backend's raw stats document.
func (rt *Router) fetchStats(ctx context.Context, b *backend) (json.RawMessage, error) {
	sctx, cancel := context.WithTimeout(ctx, statsTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, b.url+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// handleStats serves the fleet-wide stats document: backend stats are
// fetched concurrently (bounded by statsTimeout each), added, and
// returned next to the router's own sections. Unreachable backends are
// simply absent from the fleet aggregate — their probe state in the
// router section tells the story.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		errorJSON(w, http.StatusMethodNotAllowed, "router: GET only")
		return
	}
	doc := StatsDocument{BackendStats: make(map[string]json.RawMessage, len(rt.backends))}
	var sum serve.Stats
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			raw, err := rt.fetchStats(r.Context(), b)
			if err != nil {
				return
			}
			var s serve.Stats
			if err := json.Unmarshal(raw, &s); err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			doc.BackendStats[b.name] = raw
			sum.Add(&s)
		}(b)
	}
	wg.Wait()
	doc.Fleet = fleetOf(len(doc.BackendStats), &sum)
	doc.Router = rt.routerStatus()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}
