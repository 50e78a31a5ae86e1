package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
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

// Merge folds o into h: counts and cumulative buckets add, means combine
// weighted. A snapshot with another bucket count is skipped; every build of
// this package shares latencyBoundsMs.
func (h *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if len(h.Buckets) == 0 {
		h.Count, h.MeanMs = o.Count, o.MeanMs
		h.Buckets = append([]HistogramBucket(nil), o.Buckets...)
		return
	}
	if len(o.Buckets) != len(h.Buckets) {
		return
	}
	total := h.Count + o.Count
	if total > 0 {
		h.MeanMs = (h.MeanMs*float64(h.Count) + o.MeanMs*float64(o.Count)) / float64(total)
	}
	h.Count = total
	for i := range h.Buckets {
		h.Buckets[i].Count += o.Buckets[i].Count
	}
}

// The POST endpoints whose requests record outcomes.
const (
	solveEndpoint = iota
	mutateEndpoint
	nEndpoint
)

var endpointNames = [nEndpoint]string{"solve", "mutate"}

// outcome is the one fate a request records: the path that answered it, or
// why it was refused. Successes come first, then failures.
type outcome uint8

const (
	outBodyHit      outcome = iota // 200 from the raw-body digest, no decode
	outHit                         // 200 from the solution cache
	outDedup                       // 200 shared from an in-flight twin's round
	outSolved                      // 200 from a round this request led
	outDelta                       // 200, a mutate leader's staged view solved incrementally
	outColdFallback                // 200, a mutate leader's staged view solved from scratch
	outBadRequest
	outUnknownBase
	outMethod
	outShed
	outDraining
	outTimeout
	outError
	nOutcome
)

// OutcomeHeader is the response header that names a request's outcome.
const OutcomeHeader = "Copmecs-Outcome"

// outcomeNames are the outcomes' wire names, outcomeStatus their HTTP
// statuses (a 429 or 503 carries Retry-After), and outcomeHeaders the
// OutcomeHeader values, allocated once.
var (
	outcomeNames = [nOutcome]string{"body_hit", "hit", "dedup", "solved", "delta", "cold_fallback",
		"bad_request", "unknown_base", "method", "shed", "draining", "timeout", "error"}
	outcomeStatus = [nOutcome]int{
		http.StatusOK, http.StatusOK, http.StatusOK, http.StatusOK, http.StatusOK, http.StatusOK,
		http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
		http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusInternalServerError,
	}
	outcomeHeaders = func() (h [nOutcome][]string) {
		for o, name := range outcomeNames {
			h[o] = []string{name}
		}
		return h
	}()
)

// outcomeOf maps a serving error to its outcome, one sentinel each.
func outcomeOf(err error) outcome {
	switch {
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrTooLarge), errors.Is(err, ErrNoGraph):
		return outBadRequest
	case errors.Is(err, ErrUnknownBase):
		return outUnknownBase
	case errors.Is(err, errMethod):
		return outMethod
	case errors.Is(err, ErrShed):
		return outShed
	case errors.Is(err, ErrDraining):
		return outDraining
	case errors.Is(err, context.DeadlineExceeded):
		return outTimeout
	}
	return outError
}

// The latency classes: cache hits of either endpoint, a solve or a mutate
// answered by a round, and failures.
const (
	classHit = iota
	classMiss
	classMutate
	classError
	nClass
)

var classNames = [nClass]string{"hit", "miss", "mutate", "error"}

// classOf is the latency class of a reply.
func classOf(ep int, o outcome) int {
	switch {
	case o <= outHit:
		return classHit
	case o >= outBadRequest:
		return classError
	case ep == mutateEndpoint:
		return classMutate
	}
	return classMiss
}

// counters aggregates the server's monotonic event counts and gauges, each
// an atomic read without a lock. A request's fate is one outcome, recorded
// once by handle; round-path counters (batches, batchedUsers, maxBatch,
// fused*, lanczosItersSaved) are bumped by solveRound, which batcher rounds
// and mutate leaders' rounds of one run concurrently.
type counters struct {
	arrivals      [nEndpoint]atomic.Uint64           // POST /v1/solve and /v1/mutate arrivals
	outcomes      [nEndpoint][nOutcome]atomic.Uint64 // answered requests
	lat           [nClass]Histogram                  // their latency, by class
	journalErrors atomic.Uint64                      // rounds served without a journal record
	inFlight      atomic.Int64                       // requests currently inside /v1/solve or /v1/mutate
	parked        atomic.Int64                       // of those, the ones that can no longer join a solve round

	lanczosItersSaved atomic.Uint64 // Lanczos iterations replayed instead of re-run
	batches           atomic.Uint64 // solve rounds dispatched
	batchedUsers      atomic.Uint64 // users across all rounds (incl. multiplicity)
	maxBatch          atomic.Uint64 // largest round seen
	fusedRounds       atomic.Uint64 // rounds whose BatchSolve spanned >= 2 distinct graphs
	fusedGraphs       atomic.Uint64 // distinct graphs across those fused rounds
}

// record books one answered request: its outcome and its latency.
func (c *counters) record(ep int, o outcome, d time.Duration) {
	c.outcomes[ep][o].Add(1)
	c.lat[classOf(ep, o)].Observe(d)
}

// tally reads the outcome array, each counter atomically.
func (c *counters) tally() (o Outcomes) {
	for e := range o {
		for x := range o[e] {
			o[e][x] = c.outcomes[e][x].Load()
		}
	}
	return o
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

// Outcomes counts answered requests by endpoint and outcome. It renders as
// {"mutate": {"body_hit": n, …}, "solve": {…}}, every outcome named.
type Outcomes [nEndpoint][nOutcome]uint64

// total sums outs over both endpoints.
func (o *Outcomes) total(outs ...outcome) uint64 {
	var n uint64
	for e := range o {
		for _, x := range outs {
			n += o[e][x]
		}
	}
	return n
}

// MarshalJSON renders o keyed by endpoint and outcome name.
func (o Outcomes) MarshalJSON() ([]byte, error) {
	m := make(map[string]map[string]uint64, nEndpoint)
	for e, row := range o {
		named := make(map[string]uint64, nOutcome)
		for x, n := range row {
			named[outcomeNames[x]] = n
		}
		m[endpointNames[e]] = named
	}
	return json.Marshal(m)
}

// UnmarshalJSON reads MarshalJSON's form; names it does not know are ignored.
func (o *Outcomes) UnmarshalJSON(b []byte) error {
	var m map[string]map[string]uint64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for e := range o {
		for x := range o[e] {
			o[e][x] = m[endpointNames[e]][outcomeNames[x]]
		}
	}
	return nil
}

// CacheStats is the solution-cache section of a Stats snapshot.
type CacheStats struct {
	// Hits counts requests answered straight from the cache.
	Hits uint64 `json:"hits"`
	// Misses counts requests answered by a round they led.
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
	// DeltaSolves counts mutates answered by the staged view their round
	// pipelined (incremental or cold-fallback — ColdFallbacks separates
	// them).
	DeltaSolves uint64 `json:"delta_solves"`
	// ColdFallbacks counts delta solves that abandoned the incremental
	// pipeline (no cached base state, or the delta's touched-edge fraction
	// exceeded the threshold) and re-solved from scratch.
	ColdFallbacks uint64 `json:"cold_fallbacks"`
	// LanczosItersSaved totals the recorded eigensolver iterations of
	// replayed (untouched) components — spectral work the incremental path
	// avoided re-running.
	LanczosItersSaved uint64 `json:"lanczos_iters_saved"`
	// Errors counts mutates answered 500 or 504.
	Errors uint64 `json:"errors"`
}

// Fate is the flat request-fate half of a stats document: the solve
// arrivals and every reply count, each a sum over Outcomes.
type Fate struct {
	// Requests counts POST /v1/solve arrivals.
	Requests uint64 `json:"requests"`
	// Solved counts 200 responses (cached or freshly solved).
	Solved uint64 `json:"solved"`
	// BadRequests counts 400 and 404 responses.
	BadRequests uint64 `json:"bad_requests"`
	// Shed counts 429 responses from admission control (full queue).
	Shed uint64 `json:"shed"`
	// RateLimited is always 0. It counted 429s from a request-rate cap the
	// server no longer has, and stays only because the benchmark harness
	// still reads it.
	RateLimited uint64 `json:"rate_limited"`
	// DrainRejects counts 503 responses issued while draining.
	DrainRejects uint64 `json:"drain_rejects"`
	// Deduped counts 200 responses shared from an identical in-flight
	// request's round.
	Deduped uint64 `json:"deduped"`
	// SolveErrors counts 500 responses.
	SolveErrors uint64 `json:"solve_errors"`
	// Timeouts counts requests that hit their deadline (504 responses).
	Timeouts uint64 `json:"timeouts"`
}

// Stats is the JSON document served at GET /v1/stats. Every field that
// describes a request's fate is derived from Outcomes (and Latency from
// LatencyByClass), so hits + misses + deduped = solved, and at rest the
// outcomes sum to Requests + Incremental.Mutates.
type Stats struct {
	Fate
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
	// Latency is the end-to-end /v1/solve and /v1/mutate latency histogram:
	// the merge of LatencyByClass.
	Latency HistogramSnapshot `json:"latency_ms"`
	// Outcomes counts answered requests by endpoint and outcome.
	Outcomes Outcomes `json:"outcomes"`
	// LatencyByClass splits Latency by reply class: "hit" (either
	// endpoint's cache hits), "miss" (a solve answered by a round), "mutate"
	// (a mutate answered by a round) and "error" (every failure).
	LatencyByClass map[string]HistogramSnapshot `json:"latency_by_class"`
	// Durability is the journal/snapshot/recovery section; nil (omitted)
	// when the server runs purely in memory, so the flat fields and the
	// existing sections are byte-identical to a durability-free build.
	Durability *DurabilityStats `json:"durability,omitempty"`
}

// derive sets every field of st that describes a request's fate from
// st.Outcomes, and Latency from st.LatencyByClass: a server's snapshot and a
// fleet's sum read the same sums.
func (st *Stats) derive() {
	o := &st.Outcomes
	st.Solved = o.total(outBodyHit, outHit, outDedup, outSolved, outDelta, outColdFallback)
	st.BadRequests = o.total(outBadRequest, outUnknownBase)
	st.Shed = o.total(outShed)
	st.DrainRejects = o.total(outDraining)
	st.Deduped = o.total(outDedup)
	st.SolveErrors = o.total(outError)
	st.Timeouts = o.total(outTimeout)
	st.Cache.Hits = o.total(outBodyHit, outHit)
	st.Cache.BodyHits = o.total(outBodyHit)
	st.Cache.Misses = o.total(outSolved, outDelta, outColdFallback)
	m := &o[mutateEndpoint]
	st.Incremental.CacheHits = m[outHit]
	st.Incremental.DeltaSolves = m[outDelta] + m[outColdFallback]
	st.Incremental.ColdFallbacks = m[outColdFallback]
	st.Incremental.Errors = m[outError] + m[outTimeout]
	st.Latency = HistogramSnapshot{}
	for _, name := range classNames {
		st.Latency.Merge(st.LatencyByClass[name])
	}
}

// Add folds o's request-fate inputs into st — the arrival counters, the
// outcomes, the per-class latency and the Lanczos iterations saved — and
// derives the rest again: a fleet's aggregate is its backends' documents
// added.
func (st *Stats) Add(o *Stats) {
	st.Requests += o.Requests
	st.Incremental.Mutates += o.Incremental.Mutates
	st.Incremental.LanczosItersSaved += o.Incremental.LanczosItersSaved
	for e := range st.Outcomes {
		for x := range st.Outcomes[e] {
			st.Outcomes[e][x] += o.Outcomes[e][x]
		}
	}
	if st.LatencyByClass == nil {
		st.LatencyByClass = make(map[string]HistogramSnapshot, nClass)
	}
	for name, h := range o.LatencyByClass {
		sum := st.LatencyByClass[name]
		sum.Merge(h)
		st.LatencyByClass[name] = sum
	}
	st.derive()
}
