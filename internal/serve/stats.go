package serve

import (
	"math"
	"sync/atomic"
	"time"
)

// latencyBoundsMs are the upper bounds (milliseconds) of the latency
// histogram buckets; a final implicit +Inf bucket catches the rest.
var latencyBoundsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Histogram is a fixed-bucket latency histogram with lock-free atomic
// counters: the server's request latency, and the router's forward
// latency its hedger reads a p99 from. Observe is wait-free (three atomic
// adds); snapshot and Quantile read each bucket atomically without any
// lock, so a read taken during a storm is a per-counter-atomic view —
// total, sum and buckets may be mutually skewed by in-flight observations,
// but every value is a real count that was current when read (no torn
// reads, no lock convoy on the cold stats path stalling the hot path).
type Histogram struct {
	counts [numLatencyBuckets]atomic.Uint64
	count  atomic.Uint64
	sumUs  atomic.Uint64 // total microseconds
}

// numLatencyBuckets sizes the bucket array: one per entry of
// latencyBoundsMs plus the +Inf bucket (asserted in stats tests).
const numLatencyBuckets = 13

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBoundsMs) && ms > latencyBoundsMs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumUs.Add(uint64(d / time.Microsecond))
}

// Quantile estimates the q-th quantile as the upper bound of the first
// bucket whose cumulative count reaches q of the observations, and returns
// it with the number of observations it was taken over; an empty histogram
// gives 0. The +Inf bucket reports twice the last finite bound.
func (h *Histogram) Quantile(q float64) (d time.Duration, n uint64) {
	n = h.count.Load()
	if n == 0 {
		return 0, 0
	}
	target := max(1, uint64(math.Ceil(q*float64(n))))
	var cum uint64
	for i := 0; i < len(latencyBoundsMs); i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			return time.Duration(latencyBoundsMs[i] * float64(time.Millisecond)), n
		}
	}
	return time.Duration(2 * latencyBoundsMs[len(latencyBoundsMs)-1] * float64(time.Millisecond)), n
}

// HistogramBucket is one cumulative latency bucket in a Stats snapshot.
type HistogramBucket struct {
	// LE is the bucket's inclusive upper bound in milliseconds; the last
	// bucket has LE = 0 and represents +Inf.
	LE float64 `json:"le"`
	// Count is the cumulative number of observations ≤ LE.
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the JSON rendering of the latency histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// MeanMs is the mean latency in milliseconds (0 when empty).
	MeanMs float64 `json:"mean_ms"`
	// Buckets are the cumulative buckets, smallest bound first.
	Buckets []HistogramBucket `json:"buckets"`
}

// snapshot renders the histogram with cumulative bucket counts. Each
// counter is read atomically; no lock is held across the iteration.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanMs = float64(h.sumUs.Load()) / 1000 / float64(s.Count)
	}
	var cum uint64
	for i := 0; i < numLatencyBuckets; i++ {
		cum += h.counts[i].Load()
		le := 0.0 // +Inf sentinel
		if i < len(latencyBoundsMs) {
			le = latencyBoundsMs[i]
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LE: le, Count: cum})
	}
	return s
}

// counters aggregates the server's monotonic event counts and gauges, each
// an atomic read without a lock. Round-path counters (batches,
// batchedUsers, maxBatch, fused*) are bumped by solveRound, which batcher
// rounds and mutate leaders' rounds of one run concurrently.
type counters struct {
	requests      atomic.Uint64 // POST /v1/solve arrivals
	solved        atomic.Uint64 // 200 responses (cached or fresh)
	badRequests   atomic.Uint64 // 400 responses
	shed          atomic.Uint64 // 429 responses (queue full)
	drainRejects  atomic.Uint64 // 503 responses while draining
	deduped       atomic.Uint64 // requests collapsed onto an in-flight twin
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	bodyHits      atomic.Uint64 // cache hits resolved by raw-body digest (no decode)
	solveErrors   atomic.Uint64
	timeouts      atomic.Uint64 // 504 responses
	rateLimited   atomic.Uint64 // 429 responses from the MaxQPS admission cap
	journalErrors atomic.Uint64 // rounds and mutations served without a journal record
	inFlight      atomic.Int64  // requests currently inside /v1/solve or /v1/mutate
	parked        atomic.Int64  // of those, the ones that can no longer join a solve round
	lat           Histogram

	// Incremental re-solve counters (POST /v1/mutate).
	mutates           atomic.Uint64 // /v1/mutate arrivals
	mutateHits        atomic.Uint64 // mutates answered from the solution cache
	deltaSolves       atomic.Uint64 // mutates solved over their staged view
	coldFallbacks     atomic.Uint64 // delta solves that fell back to the cold pipeline
	lanczosItersSaved atomic.Uint64 // Lanczos iterations replayed instead of re-run
	mutateErrors      atomic.Uint64 // mutate solve failures (500/504 responses)

	batches      atomic.Uint64 // solve rounds dispatched
	batchedUsers atomic.Uint64 // users across all rounds (incl. multiplicity)
	maxBatch     atomic.Uint64 // largest round seen
	fusedRounds  atomic.Uint64 // rounds whose BatchSolve spanned >= 2 distinct graphs
	fusedGraphs  atomic.Uint64 // distinct graphs across those fused rounds
}

// observeBatch records one dispatched round of n users.
func (c *counters) observeBatch(n int) {
	c.batches.Add(1)
	c.batchedUsers.Add(uint64(n))
	for {
		cur := c.maxBatch.Load()
		if uint64(n) <= cur || c.maxBatch.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// CacheStats is the solution-cache section of a Stats snapshot.
type CacheStats struct {
	// Hits counts requests answered straight from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts requests that went to the solver.
	Misses uint64 `json:"misses"`
	// BodyHits counts the subset of Hits resolved by the raw-body digest
	// fast path, i.e. without JSON decoding or graph hashing.
	BodyHits uint64 `json:"body_hits"`
	// Size is the current entry count.
	Size int `json:"size"`
	// Capacity is the configured maximum entry count.
	Capacity int `json:"capacity"`
	// Evictions counts LRU evictions.
	Evictions uint64 `json:"evictions"`
}

// GraphCacheStats is the graph-intern section of a Stats snapshot: how
// often repeat request graphs were rewritten to their canonical instance
// (and therefore hit the session's pipeline cache instead of re-running
// compression and cuts).
type GraphCacheStats struct {
	// Size is the number of distinct graphs currently interned.
	Size int `json:"size"`
	// Capacity is the configured maximum number of interned graphs.
	Capacity int `json:"capacity"`
	// Reused counts requests rewritten to an already-interned graph.
	Reused uint64 `json:"reused"`
	// Evictions counts graphs dropped (with their pipeline state) by LRU.
	Evictions uint64 `json:"evictions"`
	// Pipelines is the number of graphs with compiled pipeline state in
	// the session (≤ Size; a graph enters on its first solved round).
	Pipelines int `json:"pipelines"`
}

// BatchStats is the micro-batcher section of a Stats snapshot.
type BatchStats struct {
	// Rounds counts solve rounds, a mutate leader's round of one included.
	Rounds uint64 `json:"rounds"`
	// Users counts users solved across all rounds, including the live
	// multiplicity of singleflight-collapsed duplicates.
	Users uint64 `json:"users"`
	// MaxUsers is the largest round dispatched.
	MaxUsers uint64 `json:"max_users"`
	// FusedRounds counts rounds whose one BatchSolve pass spanned two or
	// more distinct application graphs, each pipelined over its own view in
	// one worker pool (the name is kept from when such a round fused them
	// into one shared view). Single-graph rounds are not counted.
	FusedRounds uint64 `json:"fused_rounds"`
	// FusedGraphs counts the distinct graphs across those rounds —
	// FusedGraphs/FusedRounds is the mean round width.
	FusedGraphs uint64 `json:"fused_graphs"`
	// EarlyCloses counts rounds dispatched before their BatchWait window
	// expired because every request the server held was already in one.
	EarlyCloses uint64 `json:"early_closes"`
	// QueueDepth is the number of requests currently queued.
	QueueDepth int `json:"queue_depth"`
}

// IncrementalStats is the incremental re-solve section of a Stats
// snapshot: what POST /v1/mutate did with the delta-patched pipeline.
type IncrementalStats struct {
	// Mutates counts POST /v1/mutate arrivals.
	Mutates uint64 `json:"mutates"`
	// CacheHits counts mutates answered from the solution cache (the
	// mutated graph's decision was already published).
	CacheHits uint64 `json:"cache_hits"`
	// DeltaSolves counts mutates solved through the session's delta path
	// (incremental or cold-fallback — ColdFallbacks separates them).
	DeltaSolves uint64 `json:"delta_solves"`
	// ColdFallbacks counts delta solves that abandoned the incremental
	// pipeline (no cached base state, or the delta's touched-edge fraction
	// exceeded the threshold) and re-solved from scratch.
	ColdFallbacks uint64 `json:"cold_fallbacks"`
	// LanczosItersSaved totals the recorded eigensolver iterations of
	// replayed (untouched) components — spectral work the incremental path
	// avoided re-running.
	LanczosItersSaved uint64 `json:"lanczos_iters_saved"`
	// Errors counts mutate solve failures.
	Errors uint64 `json:"errors"`
}

// Stats is the JSON document served at GET /v1/stats.
type Stats struct {
	// Requests counts POST /v1/solve arrivals.
	Requests uint64 `json:"requests"`
	// Solved counts 200 responses (cached or freshly solved).
	Solved uint64 `json:"solved"`
	// BadRequests counts 400 responses.
	BadRequests uint64 `json:"bad_requests"`
	// Shed counts 429 responses from admission control (full queue).
	Shed uint64 `json:"shed"`
	// RateLimited counts 429 responses from the MaxQPS admission cap,
	// shed before the request body was read. Disjoint from Shed.
	RateLimited uint64 `json:"rate_limited"`
	// DrainRejects counts 503 responses issued while draining.
	DrainRejects uint64 `json:"drain_rejects"`
	// Deduped counts requests collapsed onto an identical in-flight one.
	Deduped uint64 `json:"deduped"`
	// SolveErrors counts solver-side failures (500 responses).
	SolveErrors uint64 `json:"solve_errors"`
	// Timeouts counts requests that hit their deadline (504 responses).
	Timeouts uint64 `json:"timeouts"`
	// InFlight is the number of requests currently being served.
	InFlight int64 `json:"in_flight"`
	// Draining reports whether the server has begun graceful drain.
	Draining bool `json:"draining"`
	// Cache is the solution-cache section.
	Cache CacheStats `json:"cache"`
	// GraphCache is the graph-intern / session pipeline-reuse section.
	GraphCache GraphCacheStats `json:"graph_cache"`
	// Batch is the micro-batcher section.
	Batch BatchStats `json:"batch"`
	// Incremental is the /v1/mutate incremental re-solve section.
	Incremental IncrementalStats `json:"incremental"`
	// Latency is the end-to-end /v1/solve and /v1/mutate latency histogram.
	Latency HistogramSnapshot `json:"latency_ms"`
	// Durability is the journal/snapshot/recovery section; nil (omitted)
	// when the server runs purely in memory, so the flat fields and the
	// existing sections are byte-identical to a durability-free build.
	Durability *DurabilityStats `json:"durability,omitempty"`
}
