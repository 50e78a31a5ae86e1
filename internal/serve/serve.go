// Package serve is the online serving layer over the COPMECS solver: a
// stdlib-only HTTP/JSON API through which many concurrent users submit
// function data-flow graphs and receive offloading decisions from one
// shared edge server.
//
// Three layers sit between the socket and core.Solve: a micro-batcher that
// coalesces concurrent requests into multi-user solve rounds, so the
// paper's shared-server contention (ActiveUsers = k in formulas (2) and
// (6)) is the live round's; a fingerprint-keyed LRU solution cache with
// singleflight deduplication, behind which a graph-intern table lets one
// core.Session reuse each graph's compiled pipeline across rounds; and
// admission control — a bounded accept queue that sheds with 429,
// per-request deadlines, and a graceful drain that completes every accepted
// request.
//
// One request lifecycle serves both POST endpoints, which differ only in
// their resolve step (body → request, params, cache key, fingerprint; a
// mutate also applies its delta to a clone of the base): handle (which
// records each request's one outcome), the cache check, admit (follower
// attach → draining check → start → cell registration under the
// flight-table lock), settle (cache fill), wake (flight removal → wakeup) and
// outcomeOf (the only error → outcome mapping). A solve leader joins a
// batcher round; a mutate leader runs a round of one inline. Every live
// round goes through runRound, which journals it as one record before
// solving — where the work is decided, never at admission — and releases
// the record after its last settle and before its first wake; every round,
// live or replayed, is solved by solveRound.
//
// Every keyed table is one map under one mutex and every counter a plain
// atomic (DESIGN.md §10). A cached decision reflects the contention of the
// round that computed it: the bounded staleness of a TTL-free cache.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/lru"
	"copmecs/internal/mec"
)

// Admission-control and cache-size defaults. Config overrides all but
// DefaultSolveTimeout, which is a constant of the service.
const (
	// DefaultRequestTimeout bounds one request end to end.
	DefaultRequestTimeout = 30 * time.Second
	// DefaultSolveTimeout bounds one solve round, a mutate leader's round of
	// one included.
	DefaultSolveTimeout = 25 * time.Second
	// DefaultCacheSize is the default solution-cache capacity (entries).
	DefaultCacheSize = 1024
	// DefaultGraphCacheSize is the default graph-intern capacity (distinct
	// graphs whose solver pipeline state is kept warm).
	DefaultGraphCacheSize = 256
)

// Serving errors.
var (
	// ErrShed is the resolution of a request rejected by admission
	// control (full queue); mapped to 429.
	ErrShed = errors.New("serve: overloaded, request shed")
	// ErrDraining is the resolution of a request arriving during graceful
	// drain; mapped to 503.
	ErrDraining = errors.New("serve: draining")
	// errMethod is the resolution of a request that is not a POST; 405.
	errMethod = errors.New("POST only")
)

// Config tunes a Server. The zero value serves with the spectral engine,
// mec.Defaults(), and the package's batching/admission defaults.
type Config struct {
	// ID names this backend in a fleet; it is reported by GET /v1/health
	// so a router's prober can tell instances apart. Empty is fine for a
	// standalone daemon.
	ID string
	// Engine is the minimum-cut engine (nil = core.SpectralEngine{}).
	Engine core.Engine
	// Params are the default MEC system constants (zero = mec.Defaults());
	// requests may override them per call.
	Params mec.Params
	// Workers bounds per-round solver parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxBatch caps the cells per solve round and each cell's live
	// multiplicity, so a round holds at most MaxBatch² users (≤ 0 =
	// DefaultMaxBatch).
	MaxBatch int
	// BatchWait bounds a round's wait for a request already at the server
	// (still reading or decoding) to join it (≤ 0 = DefaultBatchWait). A
	// round never waits for arrivals: it closes once every held request is in.
	BatchWait time.Duration
	// QueueDepth bounds the accept queue (≤ 0 = DefaultQueueDepth);
	// arrivals beyond it are shed with 429.
	QueueDepth int
	// CacheSize caps the solution cache (≤ 0 = DefaultCacheSize). The
	// raw-body identity cache shares this capacity.
	CacheSize int
	// GraphCacheSize caps the graph-intern table — the number of distinct
	// application graphs whose compiled solver pipeline (compression +
	// cuts) stays warm in the shared core.Session (≤ 0 =
	// DefaultGraphCacheSize). Evicting a graph releases its pipeline state.
	GraphCacheSize int
	// RequestTimeout bounds one request end to end, composed with the
	// client's own context (≤ 0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// Limits bounds decoded graphs (zero = package defaults).
	Limits DecodeLimits
	// Journal, when non-nil, receives every round — a batcher's solve round,
	// a mutate leader's round of one — as a write-ahead record before it is
	// solved, making answered work crash-durable (see durability.go). Nil
	// keeps serving purely in-memory.
	Journal Journal
	// DurabilityStats, when non-nil, supplies the journal/snapshot fields
	// of the /v1/stats durability section (the daemon wires it to its
	// durable store); the server fills in its own append-error and replay
	// fields. Setting Journal or DurabilityStats makes the section appear.
	DurabilityStats func() DurabilityStats
	// Logf, when non-nil, receives serving diagnostics.
	Logf func(format string, args ...any)
}

// withDefaults resolves zero fields to the package defaults.
func (c Config) withDefaults() Config {
	if c.Engine == nil {
		c.Engine = core.SpectralEngine{}
	}
	if c.Params == (mec.Params{}) {
		c.Params = mec.Defaults()
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.CacheSize <= 0 {
		c.CacheSize = DefaultCacheSize
	}
	if c.GraphCacheSize <= 0 {
		c.GraphCacheSize = DefaultGraphCacheSize
	}
	return c
}

// Decision is one user's solved offloading decision: the unit the solution
// cache stores and singleflight followers share. Decisions are immutable
// after publication.
type Decision struct {
	// Graph is the canonical fingerprint of the solved graph — the base
	// handle for /v1/mutate deltas. Empty on decisions restored from
	// snapshots written before the field existed.
	Graph string
	// Remote lists the offloaded node IDs, ascending.
	Remote []graph.NodeID
	// LocalWork, RemoteWork and CutWeight summarise the split.
	LocalWork, RemoteWork, CutWeight float64
	// Cost is the user's share of formulas (1)–(5).
	Cost mec.UserCost
	// Objective is E + T of the whole round that produced the decision.
	Objective float64
	// BatchUsers is the round size (including duplicate multiplicity).
	BatchUsers int
	// ActiveUsers is the round's k (users with offloaded work).
	ActiveUsers int
	// Engine names the cut engine that produced the decision.
	Engine string
}

// CostJSON is the wire form of mec.UserCost.
type CostJSON struct {
	// LocalTime is formula (1).
	LocalTime float64 `json:"local_time"`
	// RemoteTime is formula (2), inclusive of WaitTime.
	RemoteTime float64 `json:"remote_time"`
	// WaitTime is the contention share wtᵢ of formula (2).
	WaitTime float64 `json:"wait_time"`
	// TransmissionTime is formula (5).
	TransmissionTime float64 `json:"transmission_time"`
	// LocalEnergy is formula (3).
	LocalEnergy float64 `json:"local_energy"`
	// TransmissionEnergy is formula (4).
	TransmissionEnergy float64 `json:"transmission_energy"`
	// ServerShare is Iˢᵢ under processor sharing.
	ServerShare float64 `json:"server_share"`
}

// SolveResponse is the POST /v1/solve 200 body.
type SolveResponse struct {
	// Graph is the solved graph's canonical fingerprint — the base handle
	// for POST /v1/mutate deltas. Omitted only for decisions restored from
	// pre-field snapshots. (MutateResponse's own Graph field, one level
	// shallower, takes precedence there.)
	Graph string `json:"graph,omitempty"`
	// Remote lists the node IDs to offload, ascending.
	Remote []graph.NodeID `json:"remote"`
	// LocalWork is the computation kept on the device.
	LocalWork float64 `json:"local_work"`
	// RemoteWork is the computation offloaded to the edge server.
	RemoteWork float64 `json:"remote_work"`
	// CutWeight is the communication crossing the split.
	CutWeight float64 `json:"cut_weight"`
	// Cost is the user's cost breakdown.
	Cost CostJSON `json:"cost"`
	// BatchObjective is E + T of the round that solved the request.
	BatchObjective float64 `json:"batch_objective"`
	// BatchUsers is that round's size (including duplicate multiplicity).
	BatchUsers int `json:"batch_users"`
	// ActiveUsers is that round's k.
	ActiveUsers int `json:"active_users"`
	// Engine names the cut engine used.
	Engine string `json:"engine"`
	// Cached reports a solution-cache hit.
	Cached bool `json:"cached"`
	// Deduped reports the request was collapsed onto an in-flight twin.
	Deduped bool `json:"deduped"`
}

// ErrorResponse is the body of every non-200 JSON reply.
type ErrorResponse struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// Server is the copmecsd serving core: admission control in front of a
// micro-batcher in front of core.Solve, with a fingerprint-keyed solution
// cache shortcutting repeat work. Construct with New, start the dispatch
// loop with Start, expose Handler over HTTP, and stop with Drain.
type Server struct {
	cfg Config
	// cache is the solution cache, keyed by requestKey. bodies maps the
	// SHA-256 of a raw /v1/solve body to that key: both are deterministic
	// functions of the bytes (the default params are fixed at construction),
	// so a byte-identical repeat skips the decode; a semantically equal but
	// byte-different body simply misses, and only bodies that decoded and
	// validated are ever stored. graphs interns one canonical *graph.Graph
	// per fingerprint — interned graphs are never mutated — so the session's
	// identity-keyed pipeline cache hits although every request decodes a
	// fresh allocation; evicting a graph releases its pipeline state.
	cache  *lru.Table[string, cachedDecision]
	bodies *lru.Table[[sha256.Size]byte, string]
	graphs *lru.Table[string, *graph.Graph]
	st     counters
	b      *batcher
	sess   *core.Session
	flight *flightTable
	begin  time.Time

	roundRec []byte // dispatchRound's reused record buffer (dispatch goroutine only)
	draining atomic.Bool
	accepted sync.WaitGroup
	started  atomic.Bool
	recovery atomic.Pointer[RecoveryStats]
}

// New returns an unstarted server. cfg.Params must validate.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		cache:  lru.New[string, cachedDecision](cfg.CacheSize, nil),
		bodies: lru.New[[sha256.Size]byte, string](cfg.CacheSize, nil),
		flight: newFlightTable(),
		begin:  time.Now(),
	}
	// One Session per server: rounds over a repeat graph skip compression
	// and cuts entirely (only Algorithm 2's greedy reruns). Params vary per
	// batch item — the cached pipeline is params-independent.
	s.sess = core.NewSession(core.Options{
		Engine:  cfg.Engine,
		Workers: cfg.Workers,
	})
	s.graphs = lru.New(cfg.GraphCacheSize, func(_ string, g *graph.Graph) {
		s.sess.Invalidate(g)
	})
	s.b = newBatcher(cfg.MaxBatch, cfg.QueueDepth, cfg.BatchWait, s.settled, s.dispatchRound)
	return s, nil
}

// settled reports that no request the server holds can still join a solve
// round — every request inside handle is parked: the batcher's early-close
// predicate. inFlight is read first: a request leaving between the two
// loads then reads as unsettled, and its nudge has the round look again.
func (s *Server) settled() bool {
	held := s.st.inFlight.Load()
	return s.st.parked.Load() >= held
}

// park marks the calling request as unable to join a solve round: it waits
// on its cell (whose task, if any, is already pushed) or solves inline.
func (s *Server) park() {
	s.st.parked.Add(1)
	s.b.nudge()
}

func (s *Server) unpark() { s.st.parked.Add(-1) }

// Start launches the batcher's dispatch loop. ctx bounds every solve the
// server will run (the PR-2 context spine): cancelling it fails in-flight
// rounds, so for graceful shutdown call Drain before cancelling. Start is
// idempotent; only the first call starts the loop.
func (s *Server) Start(ctx context.Context) {
	if s.started.CompareAndSwap(false, true) {
		go s.b.run(ctx)
	}
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Drain gracefully stops the server: new solve requests are rejected with
// 503, every already-accepted request is solved and delivered, and the
// dispatch loop exits. It returns nil once the drain is complete, or
// ctx.Err() if ctx expires first (the loop is then stopped anyway and
// unresolved requests fail with their own deadlines).
func (s *Server) Drain(ctx context.Context) error {
	already := s.draining.Swap(true)
	// Publish the flag to admission: after the barrier, any admit still in
	// flight has completed its accepted.Add, and any later admit observes
	// draining and rejects — so Wait cannot race an Add.
	s.flight.drainBarrier()
	if !already {
		s.logf("serve: draining: rejecting new work, flushing accepted requests")
	}

	done := make(chan struct{})
	go func() {
		s.accepted.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if s.started.Load() {
		s.b.stopOnce()
		if err == nil {
			select {
			case <-s.b.done:
			case <-ctx.Done():
				err = ctx.Err()
			}
		}
	}
	if err == nil && !already {
		s.logf("serve: drain complete")
	}
	return err
}

// Stats snapshots the server's counters for /v1/stats. Every counter is
// read individually and atomically; no lock covers the snapshot, so a
// concurrent storm skews related counters against each other at most by
// the requests in flight during the scan. The request-fate fields are sums
// over the outcome array (Stats.derive).
func (s *Server) Stats() Stats {
	var durability *DurabilityStats
	if s.cfg.Journal != nil || s.cfg.DurabilityStats != nil {
		d := DurabilityStats{LastFsyncAgeMs: -1, LastSnapshotAgeMs: -1}
		if s.cfg.DurabilityStats != nil {
			d = s.cfg.DurabilityStats()
		}
		d.AppendErrors = s.st.journalErrors.Load()
		d.Replay = s.recovery.Load()
		durability = &d
	}
	st := Stats{
		Fate:       Fate{Requests: s.st.arrivals[solveEndpoint].Load()},
		Durability: durability,
		InFlight:   s.st.inFlight.Load(),
		Draining:   s.draining.Load(),
		Cache: CacheStats{
			Size:      s.cache.Len(),
			Capacity:  s.cache.Capacity(),
			Evictions: s.cache.Evictions(),
		},
		GraphCache: GraphCacheStats{
			Size:      s.graphs.Len(),
			Capacity:  s.graphs.Capacity(),
			Reused:    s.graphs.Reused(),
			Evictions: s.graphs.Evictions(),
			Pipelines: s.sess.CachedGraphs(),
		},
		Incremental: IncrementalStats{
			Mutates:           s.st.arrivals[mutateEndpoint].Load(),
			LanczosItersSaved: s.st.lanczosItersSaved.Load(),
		},
		Batch: BatchStats{
			Rounds:      s.st.batches.Load(),
			Users:       s.st.batchedUsers.Load(),
			MaxUsers:    s.st.maxBatch.Load(),
			FusedRounds: s.st.fusedRounds.Load(),
			FusedGraphs: s.st.fusedGraphs.Load(),
			EarlyCloses: s.b.earlyCloses.Load(),
			QueueDepth:  s.b.depth(),
		},
		Outcomes:       s.st.tally(),
		LatencyByClass: make(map[string]HistogramSnapshot, nClass),
	}
	for c, name := range classNames {
		st.LatencyByClass[name] = s.st.lat[c].snapshot()
	}
	st.derive()
	return st
}

// Handler returns the service mux: POST /v1/solve, POST /v1/mutate,
// GET /v1/health, GET /v1/stats. Profiling lives on the
// daemon's separate debug mux, not here, so the service port never
// exposes pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/v1/mutate", s.handleMutate)
	mux.HandleFunc("/v1/health", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// HTTPServer returns the http.Server copmecsd and copmecs-router serve h
// with. net/http's Shutdown counts a connection that has not sent a request
// (StateNew) as idle only once it is 5 s old, so a spare one a client dialed
// and never used would hold the drain that long. The server tracks such
// connections and closes them when Shutdown starts, which is after the
// daemon's own Drain has settled every accepted request and after the
// listener closed, so no new one can arrive.
func HTTPServer(h http.Handler) *http.Server {
	var fresh freshConns
	srv := &http.Server{Handler: h, ConnState: fresh.track}
	srv.RegisterOnShutdown(fresh.closeAll)
	return srv
}

// freshConns is the set of connections still in http.StateNew.
type freshConns struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// track is the http.Server.ConnState hook.
func (f *freshConns) track(c net.Conn, state http.ConnState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if state != http.StateNew {
		delete(f.conns, c)
		return
	}
	if f.conns == nil {
		f.conns = make(map[net.Conn]struct{})
	}
	f.conns[c] = struct{}{}
}

// closeAll closes every connection that has not sent a request. One whose
// first request is in flight loses it; the drain already rejects new work.
func (f *freshConns) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.conns {
		_ = c.Close()
	}
}

// HealthResponse is the GET /v1/health body: the cheap probe document a
// load balancer or a fleet router polls. The status code alone answers
// "route here?" (200 ready, 503 draining); the body says which state and
// whose, so a prober can tell "draining" from "dead".
type HealthResponse struct {
	// Status is "ready" or "draining".
	Status string `json:"status"`
	// ID is the backend's configured identity (omitted when unset).
	ID string `json:"id,omitempty"`
	// UptimeS is seconds since the server was constructed.
	UptimeS float64 `json:"uptime_s"`
}

// WriteHealth answers GET /v1/health for a serving tier: 200 "ready", or
// 503 "draining" with Retry-After so load balancers stop routing to it while
// accepted work flushes. id names the instance (empty omits it) and begin is
// when it started. It does no solving, no cache access and no locking, so it
// is cheap to poll at any probing interval.
func WriteHealth(w http.ResponseWriter, r *http.Request, draining bool, id string, begin time.Time) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	h := HealthResponse{Status: "ready", ID: id, UptimeS: time.Since(begin).Seconds()}
	status := http.StatusOK
	if draining {
		h.Status, status = "draining", http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, h)
}

// handleHealth serves GET /v1/health (see WriteHealth).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	WriteHealth(w, r, s.draining.Load(), s.cfg.ID, s.begin)
}

// handleStats renders the counters snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// bodyBufPool recycles request-body buffers across requests, so the hot
// path does not grow a fresh buffer per request. A buffer a request grew past
// maxPooledBody is dropped instead of returned: the pool would otherwise pin a
// burst of near-cap bodies, DefaultMaxBodyBytes apiece, for as long as the
// traffic keeps its buffers cycling.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// handleSolve serves POST /v1/solve (see solve).
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.handle(w, r, solveEndpoint, s.solve)
}

// handleMutate serves POST /v1/mutate (see mutate).
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	s.handle(w, r, mutateEndpoint, s.mutate)
}

// reply is one answer handle writes: its outcome, and either a 200 body
// rendered in pieces, written in order, or the error value to encode.
type reply struct {
	o    outcome
	body [3][]byte
	v    any
}

// handle is the entry wrapper both POST endpoints share: arrival and
// in-flight accounting, the method check, the pooled, size-capped body read,
// and the reply.
// serve returns the reply on success and the error to answer with
// otherwise; ctx is the request's, and body is only valid until serve
// returns. A request records exactly one outcome, with its latency, on the
// way out; the outcome also sets the reply's OutcomeHeader, its status and
// its Retry-After hint — the one place a serving error becomes either.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, ep int,
	serve func(ctx context.Context, body []byte) (reply, error)) {
	start := time.Now()
	s.st.arrivals[ep].Add(1)
	s.st.inFlight.Add(1)
	rep := reply{o: outError} // what a panic below is booked as
	defer func() {
		s.st.record(ep, rep.o, time.Since(start))
		s.st.inFlight.Add(-1)
		s.b.nudge() // one request fewer an open round could be waiting for
	}()
	rep, err := s.answer(w, r, serve)
	if err != nil {
		rep = reply{o: outcomeOf(err), v: ErrorResponse{Error: err.Error()}}
	}
	status := outcomeStatus[rep.o]
	w.Header()[OutcomeHeader] = outcomeHeaders[rep.o]
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	if rep.body[0] != nil {
		writeBody(w, rep.body)
	} else {
		writeJSON(w, status, rep.v)
	}
}

// answer is handle's way to a reply: the method check, then the body, then
// serve.
func (s *Server) answer(w http.ResponseWriter, r *http.Request,
	serve func(ctx context.Context, body []byte) (reply, error)) (reply, error) {
	if r.Method != http.MethodPost {
		return reply{}, errMethod
	}
	buf := bodyBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyBufPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)); err != nil {
		return reply{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return serve(r.Context(), buf.Bytes())
}

// paramsFor resolves a request's optional params override against the
// server defaults and validates the result.
func (s *Server) paramsFor(override *ParamsJSON) (mec.Params, error) {
	params := s.cfg.Params
	if override != nil {
		params = override.merge(params)
	}
	if err := params.Validate(); err != nil {
		return params, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return params, nil
}

// cachedDecision is one solution-cache slot: the immutable decision shared
// with in-flight responses, and its pre-rendered cache-hit response body.
type cachedDecision struct {
	dec *Decision
	hit []byte
}

// publish fills the solution cache with dec and its pre-rendered hit
// response, so every subsequent hit writes stored bytes, and returns them. A
// decision that does not render (a non-finite float) is not cached.
func (s *Server) publish(key string, dec *Decision) ([]byte, error) {
	hit, err := renderHit(dec)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, cachedDecision{dec: dec, hit: hit})
	return hit, nil
}

// userInputOf is the solver's view of one request.
func userInputOf(req *SolveRequest) core.UserInput {
	return core.UserInput{
		Graph:          req.Graph,
		FixedLocalWork: req.FixedLocalWork,
		DeviceCompute:  req.DeviceCompute,
		Bandwidth:      req.Bandwidth,
		PowerTransmit:  req.PowerTransmit,
	}
}

// solve is /v1/solve behind handle: body digest → (fast path: cached
// identity + cached decision) or (decode → key → cache) → singleflight →
// admission → queue → batch → await. On the fast path a byte-identical
// repeat of a previously valid request skips JSON decoding and graph
// hashing entirely, and a live solution-cache entry answers with its
// pre-rendered bytes. Any miss falls through to the full decode, which
// back-fills the identity for the next repeat.
func (s *Server) solve(ctx context.Context, body []byte) (reply, error) {
	digest := sha256.Sum256(body)
	if key, ok := s.bodies.Get(digest); ok {
		if ent, ok := s.cache.Get(key); ok {
			return reply{o: outBodyHit, body: [3][]byte{ent.hit}}, nil
		}
		// Identity known but the decision was evicted: decode below and
		// take the solve path (the identity mapping stays valid).
	}
	req, err := DecodeSolveBody(body, s.cfg.Limits)
	if err != nil {
		return reply{}, err
	}
	params, err := s.paramsFor(req.Params)
	if err != nil {
		return reply{}, err
	}
	rec := newAcceptedRecord(req.Graph, params, req.UserOverrides)
	fp := recordFingerprint(rec)
	key := cacheKey(fp, params, req.UserOverrides)
	s.bodies.Put(digest, key)
	if ent, ok := s.cache.Get(key); ok {
		return reply{o: outHit, body: [3][]byte{ent.hit}}, nil
	}

	task := &solveTask{
		rec:    rec,
		user:   userInputOf(req),
		params: params,
		pkey:   paramsDigest(params),
		fp:     fp,
	}
	p, leader, err := s.admit(key, func(p *pending) bool {
		task.p = p
		return s.b.enqueue(task)
	})
	if err != nil {
		return reply{}, err
	}
	hit, err := s.await(ctx, p)
	if err != nil {
		return reply{}, err
	}
	if !leader {
		return reply{o: outDedup, body: solveReply(hit, true)}, nil
	}
	return reply{o: outSolved, body: solveReply(hit, false)}, nil
}

// admit runs singleflight attachment and admission control under the
// flight-table lock. It returns (cell, true, nil) for an accepted
// leader, (cell, false, nil) for a follower sharing an in-flight cell,
// and (nil, false, ErrShed or ErrDraining) for a rejected request.
// Followers are admitted even while draining: their cell is already
// accepted work. start (nil when the leader solves inline) hands the cell to
// whatever will solve it; a refusal sheds the request.
func (s *Server) admit(key string, start func(*pending) bool) (*pending, bool, error) {
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	if p, ok := s.flight.m[key]; ok {
		p.mult.Add(1)
		return p, false, nil
	}
	if s.draining.Load() {
		return nil, false, ErrDraining
	}
	p := newPending(key)
	if start != nil && !start(p) {
		return nil, false, ErrShed
	}
	// Under the same lock as the draining check: Drain flips the flag and
	// then takes the lock once, so every Add happens-before accepted.Wait
	// can return.
	s.flight.m[key] = p
	s.accepted.Add(1)
	return p, true, nil
}

// await blocks until the admitted request's cell resolves or its deadline
// expires, and returns its rendered hit. A client that hangs up gets its
// context error; the solve still completes and fills the cache for the retry.
func (s *Server) await(ctx context.Context, p *pending) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	s.park()
	defer s.unpark()
	select {
	case <-p.done:
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: waiting for solve: %w", ctx.Err())
	}
	if p.err != nil {
		return nil, p.err
	}
	return p.hit, nil
}

// dispatchRound is the batcher's dispatch, the one place a solve round is
// decided: each task's live multiplicity is read once, capped at MaxBatch, so
// singleflight followers count toward the round's k. The round then runs
// through runRound on the dispatcher's reused record buffer.
func (s *Server) dispatchRound(ctx context.Context, round []*solveTask) {
	for _, t := range round {
		t.mult = min(int(t.p.mult.Load()), s.b.maxBatch)
	}
	s.roundRec = s.runRound(ctx, round, s.roundRec)
}

// runRound journals and solves a live round, a batcher's or a mutate
// leader's round of one: the round is appended as one recRound before it is
// solved (write-ahead), and released once its last decision is cached and
// before any of its cells wakes, failed cells included — a poison round must
// not replay at every boot, and a reply implies its record is released. buf
// is scratch for the record; runRound returns it grown, for reuse.
func (s *Server) runRound(ctx context.Context, round []*solveTask, buf []byte) []byte {
	buf, seg, ok := s.journal(round, buf)
	s.solveRound(ctx, round, func() { s.release(seg, ok) })
	return buf
}

// journal appends round to the journal as one recRound built in buf, and
// returns buf and the record's token for release. ok is false — nothing to
// release — with no journal, or when the record fails to encode or append.
func (s *Server) journal(round []*solveTask, buf []byte) (_ []byte, seg uint64, ok bool) {
	if s.cfg.Journal == nil {
		return buf, 0, false
	}
	buf, err := appendRound(buf[:0], round)
	if err == nil {
		seg, err = s.cfg.Journal.Append(buf)
	}
	if cap(buf) > maxPooledBody {
		buf = nil // a round of large graphs must not stay pinned
	}
	if err != nil { // served anyway: durability degrades, availability does not
		s.st.journalErrors.Add(1)
		s.logf("serve: journal append: %v", err)
	}
	return buf, seg, err == nil
}

// release hands a journaled record back for snapshot truncation.
func (s *Server) release(seg uint64, ok bool) {
	if ok {
		s.cfg.Journal.Applied(seg)
	}
}

// solveRound solves a round as dispatchRound fixed it, as a mutate leader
// built its round of one, or as Recover read either from the journal. Each
// graph is first rewritten to its interned instance, so the session's
// identity-keyed pipeline cache hits; only now, its round journaled, does a
// graph become a /v1/mutate base. A mutation whose applied graph this intern
// inserted has its patched view staged in the pass; one whose content was
// already interned is solved as that instance. The round is partitioned by
// params digest (first-appearance order) into one batch item each, all
// solved by one Session.BatchSolve bounded by DefaultSolveTimeout, bit for
// bit what per-group Solve calls would give. Each task expands into mult
// identical users, which share the representative's decision. Every cell is
// settled before release runs and woken after it.
func (s *Server) solveRound(ctx context.Context, round []*solveTask, release func()) {
	groups := make(map[string][]*solveTask)
	var order []string
	var applied []*core.Applied
	for _, t := range round {
		t.user.Graph, _ = s.graphs.GetOrPut(t.fp, t.user.Graph)
		if t.staged() {
			applied = append(applied, t.applied)
		}
		if _, ok := groups[t.pkey]; !ok {
			order = append(order, t.pkey)
		}
		groups[t.pkey] = append(groups[t.pkey], t)
	}

	items := make([]core.BatchItem, len(order))
	reps := make([][]int, len(order)) // reps[g][i]: task i's representative user index
	distinct := make(map[*graph.Graph]struct{}, len(round))
	for gi, pk := range order {
		tasks := groups[pk]
		var users []core.UserInput
		rep := make([]int, len(tasks))
		for i, t := range tasks {
			rep[i] = len(users)
			for j := 0; j < t.mult; j++ {
				users = append(users, t.user)
			}
			distinct[t.user.Graph] = struct{}{}
		}
		s.st.observeBatch(len(users))
		items[gi] = core.BatchItem{Users: users, Params: tasks[0].params}
		reps[gi] = rep
	}
	// Interned graphs are pointer-canonical, so pointer identity counts
	// distinct applications; a round spanning >= 2 of them is where one
	// pipeline pass served several graphs.
	if len(distinct) >= 2 {
		s.st.fusedRounds.Add(1)
		s.st.fusedGraphs.Add(uint64(len(distinct)))
	}

	sctx, cancel := context.WithTimeout(ctx, DefaultSolveTimeout)
	defer cancel()
	results := s.sess.BatchSolve(sctx, items, applied...)
	for gi, pk := range order {
		tasks := groups[pk]
		r := results[gi]
		if r.Err != nil {
			s.logf("serve: round of %d users failed: %v", len(items[gi].Users), r.Err)
		}
		for i, t := range tasks {
			if r.Err != nil {
				s.settle(t.p, nil, r.Err)
				continue
			}
			if t.staged() {
				s.st.lanczosItersSaved.Add(uint64(t.applied.Stats().LanczosItersSaved))
			}
			s.settle(t.p, decisionFor(t.fp, r.Solution, reps[gi][i], len(items[gi].Users)), nil)
		}
	}
	release()
	for _, t := range round { // after the cache fill: no moment exists where neither table covers a key
		s.flight.remove(t.p.key)
		close(t.p.done)
		s.accepted.Done()
	}
}

// settle publishes an accepted cell's result to the solution cache (a
// decision that does not render fails the cell as a bad request instead) but
// wakes no one: solveRound releases the round's record after its last settle
// — a snapshot that sees its segment applied sees the decision — and only
// then removes the round's cells from the singleflight table and wakes them.
func (s *Server) settle(p *pending, dec *Decision, err error) {
	if dec != nil {
		var perr error
		if p.hit, perr = s.publish(p.key, dec); perr != nil {
			dec, err = nil, fmt.Errorf("%w: decision not representable: %v", ErrBadRequest, perr)
		}
	}
	p.dec, p.err = dec, err
}

// decisionFor extracts user u's decision from a solved round of n users;
// fp is the canonical fingerprint of the user's graph. The work split and
// cut weight are the ones the solver evaluated, not a second graph walk, and
// the remote set is read off the user's offloaded parts — the runs the
// placement's map was filled from, each already ascending.
func decisionFor(fp string, sol *core.Solution, u, n int) *Decision {
	st := sol.States[u]
	remote := make([]graph.NodeID, 0, len(sol.Placements[u].Remote))
	for i := range sol.Parts {
		if p := &sol.Parts[i]; p.User == u && p.Remote {
			remote = append(remote, p.Nodes...)
		}
	}
	slices.Sort(remote)
	return &Decision{
		Graph:       fp,
		Remote:      remote,
		LocalWork:   st.LocalWork,
		RemoteWork:  st.RemoteWork,
		CutWeight:   st.CutWeight,
		Cost:        sol.Eval.PerUser[u],
		Objective:   sol.Eval.Objective,
		BatchUsers:  n,
		ActiveUsers: sol.Eval.ActiveUsers,
		Engine:      sol.Stats.EngineName,
	}
}

// solveResponseFor assembles the wire form of dec.
func solveResponseFor(dec *Decision, cached, deduped bool) SolveResponse {
	return SolveResponse{
		Graph:      dec.Graph,
		Remote:     dec.Remote,
		LocalWork:  dec.LocalWork,
		RemoteWork: dec.RemoteWork,
		CutWeight:  dec.CutWeight,
		Cost: CostJSON{
			LocalTime:          dec.Cost.LocalTime,
			RemoteTime:         dec.Cost.RemoteTime,
			WaitTime:           dec.Cost.WaitTime,
			TransmissionTime:   dec.Cost.TransmissionTime,
			LocalEnergy:        dec.Cost.LocalEnergy,
			TransmissionEnergy: dec.Cost.TransmissionEnergy,
			ServerShare:        dec.Cost.ServerShare,
		},
		BatchObjective: dec.Objective,
		BatchUsers:     dec.BatchUsers,
		ActiveUsers:    dec.ActiveUsers,
		Engine:         dec.Engine,
		Cached:         cached,
		Deduped:        deduped,
	}
}

// renderHit pre-encodes dec's cached=true response at cache-fill time, so
// every subsequent hit writes stored bytes instead of re-encoding JSON.
// The bytes match writeJSON's encoder output (trailing newline included);
// every other reply about dec is rewritten from them (solveReply,
// mutateReply). It fails only on a non-finite float, which JSON cannot carry.
func renderHit(dec *Decision) ([]byte, error) {
	b, err := json.Marshal(solveResponseFor(dec, true, false))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// hitTail ends every body renderHit returns: the flags a rewrite replaces,
// SolveResponse's last two members.
const hitTail = `"cached":true,"deduped":false}` + "\n"

// solveReply is the /v1/solve body of a solved or deduped request, rewritten
// from the decision's rendered hit: the bytes writeJSON encodes from
// solveResponseFor(dec, false, deduped).
func solveReply(hit []byte, deduped bool) [3][]byte {
	tail := append(appendFlags(make([]byte, 0, len(hitTail)+1), false, deduped), "}\n"...)
	return [3][]byte{hit[:len(hit)-len(hitTail)], tail}
}

// appendFlags appends SolveResponse's cached and deduped members.
func appendFlags(b []byte, cached, deduped bool) []byte {
	b = strconv.AppendBool(append(b, `"cached":`...), cached)
	return strconv.AppendBool(append(b, `,"deduped":`...), deduped)
}

// writeBody answers 200 with a rendered body's pieces.
func writeBody(w http.ResponseWriter, body [3][]byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, b := range body {
		_, _ = w.Write(b)
	}
}

// writeJSON writes v as a JSON response. Encoding failures after the
// header is sent can only be reported by aborting the connection, which
// the http server does on write error; the encode error itself is
// deliberately dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// retryAfterSeconds is the Retry-After hint on 429/503 responses.
const retryAfterSeconds = "1"
