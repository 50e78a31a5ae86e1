// Package router is the horizontal serving tier in front of a copmecsd
// fleet: a stateless reverse proxy that routes each solve request to the
// backend owning its graph fingerprint on a consistent-hash ring.
//
// Fingerprint routing is what makes a fleet of independent copmecsd
// processes behave like one big cache: every repeat of a graph lands on
// the same backend, so that backend's solution cache, body-digest cache,
// and interned session pipelines stay hot while the others never waste
// memory on the key. The router keeps its own raw-body digest → fingerprint
// cache, so repeat bodies are routed without JSON decoding — the same
// identity trick the backends use, applied one tier up.
//
// Three mechanisms keep the tier available while backends come and go:
//
//   - Health probing. A prober sweeps every backend's GET /v1/health;
//     repeated failures quarantine a backend (it leaves the ring, its arcs
//     flow to ring neighbours), repeated successes re-admit it. Proxy
//     transport errors feed the same state machine, so a crashed backend
//     is ejected on first contact.
//   - Failover. A transport error or a 503 on one attempt retries the
//     next distinct replica clockwise on the ring, deterministically.
//   - Hedging. An attempt outliving a p99-derived latency budget earns a
//     speculative duplicate on the next replica; first success wins and
//     the loser is canceled. Solves are idempotent and cached, so the
//     duplicate is safe and usually cheap for the second backend.
//
// GET /v1/stats aggregates the fleet: every backend's stats document is
// fetched, summed (latency histograms merged bucket-wise), and returned
// alongside the router's own routing/probe/hedge sections.
package router

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"copmecs/internal/lru"
	"copmecs/internal/serve"
)

// Defaults of the Config fields a zero value leaves unset.
const (
	// DefaultProbeInterval is the health sweep period.
	DefaultProbeInterval = 500 * time.Millisecond
	// DefaultQuarantineAfter is the consecutive-failure threshold.
	DefaultQuarantineAfter = 2
	// DefaultReadmitAfter is the consecutive-success threshold.
	DefaultReadmitAfter = 2
	// defaultIdentCapacity bounds the identity and affinity caches when
	// Config.IdentCacheSize is 0.
	defaultIdentCapacity = 65536
)

// Router tuning.
const (
	// probeTimeout bounds one health check.
	probeTimeout = 2 * time.Second
	// hedgeMultiplier scales the observed p99 into the hedge budget.
	hedgeMultiplier = 3
	// hedgeMin floors the hedge budget so hedges never fire inside
	// normal cache-hit latency jitter.
	hedgeMin = 10 * time.Millisecond
	// hedgeMax caps the hedge budget.
	hedgeMax = 2 * time.Second
	// hedgeCold is the budget before enough samples exist.
	hedgeCold = 500 * time.Millisecond
	// hedgeMinSamples is how many forward latencies must be observed
	// before the p99-derived budget replaces the cold-start one.
	hedgeMinSamples = 32
	// forwardTimeout bounds one proxied solve attempt end to end.
	forwardTimeout = 30 * time.Second
	// statsTimeout bounds one backend's stats fetch during
	// aggregation.
	statsTimeout = 2 * time.Second
	// maxAttempts caps the distinct replicas tried per request
	// (failover plus hedge), unless the ring is smaller.
	maxAttempts = 3
)

// BackendConfig names one fleet member.
type BackendConfig struct {
	// Name is the backend's stable identity on the ring. Ring placement
	// hashes the name, not the URL, so a backend keeps its arcs across
	// address changes (restart on a new port).
	Name string
	// URL is the backend's base URL, e.g. "http://127.0.0.1:8080".
	URL string
}

// Config parameterizes a Router. The zero value of each field means its
// package default; Backends is the only required field.
type Config struct {
	// Backends is the fleet (at least one member, unique names).
	Backends []BackendConfig
	// ProbeInterval is the health sweep period.
	ProbeInterval time.Duration
	// QuarantineAfter is the consecutive-failure threshold for ejection.
	QuarantineAfter int
	// ReadmitAfter is the consecutive-success threshold for re-admission.
	ReadmitAfter int
	// DisableHedge turns speculative duplicates off (failover retry on
	// hard errors still applies).
	DisableHedge bool
	// Limits bounds request decoding on the identity-cache miss path.
	Limits serve.DecodeLimits
	// IdentCacheSize caps the digest → fingerprint identity cache.
	IdentCacheSize int
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

// withDefaults resolves zero fields to package defaults.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = DefaultQuarantineAfter
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = DefaultReadmitAfter
	}
	if c.IdentCacheSize <= 0 {
		c.IdentCacheSize = defaultIdentCapacity
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Router fronts a copmecsd fleet: fingerprint-consistent routing, health
// probing with quarantine, failover, hedging, and fleet-wide stats.
type Router struct {
	cfg      Config
	backends []*backend
	byName   map[string]*backend
	ring     atomic.Pointer[Ring] // ready members only; swapped on transitions
	fullRing *Ring                // every configured backend; the last resort
	prober   *prober
	hedge    *hedger
	// ident maps raw-body SHA-256 digests to graph fingerprints so repeat
	// bodies route without a JSON decode — the router-side twin of the
	// backend's body-digest cache. affinity maps a mutated graph's
	// fingerprint to the name of the backend that produced it.
	ident    *lru.Table[[sha256.Size]byte, string]
	affinity *lru.Table[string, string]
	client   *http.Client
	begin    time.Time

	mu        sync.Mutex         // guards stopProbe
	stopProbe context.CancelFunc // cancels the prober; nil before Start

	draining atomic.Bool
	inflight atomic.Int64

	requests     atomic.Uint64 // POST /v1/solve arrivals
	forwards     atomic.Uint64 // attempts sent to backends
	failovers    atomic.Uint64 // attempts relaunched after a hard failure
	badRequests  atomic.Uint64 // 400 responses (undecodable on ident miss)
	unreachable  atomic.Uint64 // 502 responses after exhausting replicas
	drainRejects atomic.Uint64 // 503 responses while draining
	identHits    atomic.Uint64 // bodies routed without JSON decode
	identMisses  atomic.Uint64 // bodies decoded to learn their fingerprint
	mutates      atomic.Uint64 // POST /v1/mutate arrivals
	affinityHits atomic.Uint64 // mutates routed via the affinity cache
}

// New validates cfg and builds a Router. All backends start ready (the
// first probe sweep corrects optimism within one interval); call Start to
// begin probing, then serve Handler.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	rt := &Router{
		cfg:      cfg,
		byName:   make(map[string]*backend, len(cfg.Backends)),
		ident:    lru.New[[sha256.Size]byte, string](cfg.IdentCacheSize, nil),
		affinity: lru.New[string, string](cfg.IdentCacheSize, nil),
		begin:    time.Now(),
		client: &http.Client{
			Timeout: forwardTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	names := make([]string, 0, len(cfg.Backends))
	for _, bc := range cfg.Backends {
		if bc.Name == "" {
			return nil, fmt.Errorf("router: backend with empty name")
		}
		if _, dup := rt.byName[bc.Name]; dup {
			return nil, fmt.Errorf("router: duplicate backend name %q", bc.Name)
		}
		u, err := url.Parse(bc.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("router: backend %s: bad URL %q", bc.Name, bc.URL)
		}
		b := &backend{name: bc.Name, url: strings.TrimRight(bc.URL, "/")}
		rt.backends = append(rt.backends, b)
		rt.byName[bc.Name] = b
		names = append(names, bc.Name)
	}
	rt.hedge = &hedger{enabled: !cfg.DisableHedge}
	rt.prober = &prober{
		backends:     rt.backends,
		client:       rt.client,
		interval:     cfg.ProbeInterval,
		failAfter:    cfg.QuarantineAfter,
		readmitAfter: cfg.ReadmitAfter,
		onChange:     rt.rebuildRing,
		logf:         cfg.Logf,
		done:         make(chan struct{}),
	}
	rt.fullRing = NewRing(names)
	rt.rebuildRing()
	return rt, nil
}

// rebuildRing swaps in a fresh ring over the currently ready backends.
// Called at construction and on every quarantine/re-admission; requests in
// flight keep the ring they loaded (immutable), new requests see the swap.
func (rt *Router) rebuildRing() {
	names := make([]string, 0, len(rt.backends))
	for _, b := range rt.backends {
		if b.ready() {
			names = append(names, b.name)
		}
	}
	rt.ring.Store(NewRing(names))
}

// Start launches the health prober. The prober stops when ctx is canceled
// or Drain runs, whichever comes first.
func (rt *Router) Start(ctx context.Context) {
	pctx, cancel := context.WithCancel(ctx)
	rt.mu.Lock()
	rt.stopProbe = cancel
	rt.mu.Unlock()
	go rt.prober.run(pctx)
}

// Drain stops admitting solves (503 with Retry-After), stops the prober,
// and waits for in-flight requests to finish or ctx to expire.
func (rt *Router) Drain(ctx context.Context) error {
	rt.draining.Store(true)
	rt.mu.Lock()
	cancel := rt.stopProbe
	rt.mu.Unlock()
	if cancel != nil {
		cancel()
		<-rt.prober.done
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for rt.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: drain: %d requests still in flight: %w",
				rt.inflight.Load(), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// Handler returns the router's HTTP mux: POST /v1/solve and /v1/mutate
// (proxy), GET /v1/stats (fleet aggregate) and GET /v1/health (200 ready,
// 503 once draining).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, "/v1/solve", &rt.requests, rt.routeSolve)
	})
	mux.HandleFunc("/v1/mutate", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, "/v1/mutate", &rt.mutates, rt.routeMutate)
	})
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/v1/health", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteHealth(w, r, rt.draining.Load(), "", rt.begin)
	})
	return mux
}
