// Command copmecs-loadgen drives a running copmecsd (or copmecs-router)
// with synthetic offloading traffic and reports throughput and latency
// percentiles end to end: sockets, JSON, batching and cache behaviour
// included. scripts/fleet_smoke.sh uses it as the client of the fleet
// fault-tolerance gate; BENCHMARK.json, not this tool, is the source of
// performance claims.
//
// The loop is closed: -concurrency workers each keep exactly one request
// in flight, so offered load adapts to the server's speed.
//
// Traffic replays a seeded synthetic graph corpus: each request reuses a
// corpus graph with probability -repeat (exercising the solution cache
// and singleflight) and otherwise submits a never-seen-before graph
// (exercising the full solve path). The same -seed replays the same
// mixture.
//
// The summary is one JSON object (see the result type) written to -o or
// stdout. -fail-5xx makes any 5xx response fatal so a smoke run doubles as
// a health check.
//
// Usage:
//
//	copmecs-loadgen -addr http://127.0.0.1:8080 -duration 10s -repeat 0.9
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copmecs-loadgen:", err)
		os.Exit(1)
	}
}

// latencySummary is the latency section of the JSON summary, in
// milliseconds.
type latencySummary struct {
	// P50 is the median request latency.
	P50 float64 `json:"p50"`
	// P95 is the 95th-percentile request latency.
	P95 float64 `json:"p95"`
	// P99 is the 99th-percentile request latency.
	P99 float64 `json:"p99"`
	// Max is the slowest request observed.
	Max float64 `json:"max"`
	// Mean is the arithmetic mean over all requests.
	Mean float64 `json:"mean"`
}

// result is the JSON summary the generator emits. scripts/fleet_smoke.sh
// asserts on requests, ok, shed, errors_5xx and errors_other.
type result struct {
	// DurationS is the measured wall-clock run length in seconds.
	DurationS float64 `json:"duration_s"`
	// Concurrency is the closed-loop worker count.
	Concurrency int `json:"concurrency"`
	// Requests counts requests issued.
	Requests uint64 `json:"requests"`
	// OK counts 200 responses.
	OK uint64 `json:"ok"`
	// Cached counts 200 responses answered from the solution cache.
	Cached uint64 `json:"cached"`
	// Shed counts 429 responses (admission control).
	Shed uint64 `json:"shed"`
	// Errors5xx counts 5xx responses.
	Errors5xx uint64 `json:"errors_5xx"`
	// ErrorsOther counts transport failures and unexpected statuses.
	ErrorsOther uint64 `json:"errors_other"`
	// AchievedQPS is OK responses per second of run time.
	AchievedQPS float64 `json:"achieved_qps"`
	// LatencyMs summarises OK-response latency.
	LatencyMs latencySummary `json:"latency_ms"`
}

// sample is one completed request: its outcome and, for OK responses, the
// observed latency.
type sample struct {
	status  int
	cached  bool
	latency time.Duration
	err     error
}

// run parses flags, drives the target, and writes the JSON summary.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("copmecs-loadgen", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "copmecsd base URL")
		duration    = fs.Duration("duration", 10*time.Second, "measured run length")
		concurrency = fs.Int("concurrency", 8, "closed-loop workers, one request in flight each")
		corpus      = fs.Int("corpus", 64, "distinct graphs in the replay corpus")
		nodes       = fs.Int("nodes", 12, "nodes per synthetic graph")
		repeat      = fs.Float64("repeat", 0.9, "probability a request replays a corpus graph")
		seed        = fs.Int64("seed", 1, "corpus and schedule seed")
		timeout     = fs.Duration("timeout", 10*time.Second, "per-request timeout")
		waitReady   = fs.Duration("wait-ready", 0, "poll /v1/healthz this long before starting (0 = don't)")
		fail5xx     = fs.Bool("fail-5xx", false, "exit non-zero if any 5xx is observed")
		outPath     = fs.String("o", "", "summary path (empty = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be ≥ 1")
	}
	if *corpus < 1 {
		return fmt.Errorf("-corpus must be ≥ 1")
	}
	if *repeat < 0 || *repeat > 1 {
		return fmt.Errorf("-repeat must be in [0, 1]")
	}
	client := &http.Client{Timeout: *timeout}
	if *waitReady > 0 {
		if err := awaitReady(client, *addr, *waitReady); err != nil {
			return err
		}
	}

	gen := newTrafficGen(*corpus, *nodes, *repeat, *seed)
	res := drive(client, *addr, gen, *duration, *concurrency)

	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
			return err
		}
	} else if _, err := out.Write(enc); err != nil {
		return err
	}
	if *fail5xx && res.Errors5xx > 0 {
		return fmt.Errorf("%d 5xx responses observed", res.Errors5xx)
	}
	return nil
}

// awaitReady polls /v1/healthz until it answers 200 or the wait budget is
// spent, so the generator can be started alongside a booting daemon.
func awaitReady(client *http.Client, addr string, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(addr + "/v1/healthz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("server not ready after %v: %w", wait, err)
			}
			return fmt.Errorf("server not ready after %v", wait)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// trafficGen produces request bodies: a fixed seeded corpus replayed with
// probability repeat, fresh never-repeated graphs otherwise.
type trafficGen struct {
	corpus [][]byte
	nodes  int
	repeat float64
	fresh  atomic.Uint64 // distinct-graph sequence; never collides with the corpus
}

// newTrafficGen builds the seeded corpus.
func newTrafficGen(corpus, nodes int, repeat float64, seed int64) *trafficGen {
	rng := rand.New(rand.NewSource(seed))
	g := &trafficGen{nodes: nodes, repeat: repeat}
	g.corpus = make([][]byte, corpus)
	for i := range g.corpus {
		g.corpus[i] = graphBody(rng, nodes, uint64(i))
	}
	g.fresh.Store(uint64(corpus)) // fresh graphs continue the tag sequence
	return g
}

// request returns the next /v1/solve body for a worker-local rng.
func (g *trafficGen) request(rng *rand.Rand) []byte {
	if rng.Float64() < g.repeat {
		return g.corpus[rng.Intn(len(g.corpus))]
	}
	return graphBody(rng, g.nodes, g.fresh.Add(1))
}

// graphBody encodes one synthetic solve request: a chain of nodes with a
// few extra random edges, the usual shape of a function pipeline with
// data reuse. tag is folded into the first node's weight so every tag
// yields a distinct canonical graph.
func graphBody(rng *rand.Rand, nodes int, tag uint64) []byte {
	type nodeJSON struct {
		// ID is the node identifier.
		ID int `json:"id"`
		// Weight is the node's computation amount.
		Weight float64 `json:"weight"`
	}
	var req struct {
		Graph struct {
			Nodes []nodeJSON       `json:"nodes"`
			Edges []map[string]any `json:"edges"`
		} `json:"graph"`
	}
	req.Graph.Nodes = make([]nodeJSON, nodes)
	for i := range req.Graph.Nodes {
		req.Graph.Nodes[i] = nodeJSON{ID: i, Weight: 20 + rng.Float64()*200}
	}
	// The tag perturbs node 0 so distinct tags cannot collide even when
	// the rng state matches.
	req.Graph.Nodes[0].Weight += float64(tag%1000) / 1000
	for i := 0; i+1 < nodes; i++ {
		req.Graph.Edges = append(req.Graph.Edges, map[string]any{
			"u": i, "v": i + 1, "weight": 5 + rng.Float64()*60,
		})
	}
	for i := 0; i < nodes/4; i++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u != v {
			req.Graph.Edges = append(req.Graph.Edges, map[string]any{
				"u": u, "v": v, "weight": 1 + rng.Float64()*20,
			})
		}
	}
	b, err := json.Marshal(&req)
	if err != nil {
		// Plain maps and floats cannot fail to marshal; treat it as the
		// programming error it would be.
		panic(err)
	}
	return b
}

// drive runs the closed-loop measurement and returns the aggregated summary.
func drive(client *http.Client, addr string, gen *trafficGen, duration time.Duration, concurrency int) *result {
	results := make(chan sample, 4096)
	var collectorWG sync.WaitGroup
	collectorWG.Add(1)
	var agg aggregator
	go func() {
		defer collectorWG.Done()
		for s := range results {
			agg.add(s)
		}
	}()

	// Closed loop: exactly concurrency requests in flight until ctx ends.
	ctx, cancel := context.WithTimeout(context.Background(), duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for ctx.Err() == nil {
				results <- post(ctx, client, addr, gen.request(rng))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	collectorWG.Wait()

	res := agg.summary()
	res.DurationS = elapsed.Seconds()
	res.Concurrency = concurrency
	if elapsed > 0 {
		res.AchievedQPS = float64(res.OK) / elapsed.Seconds()
	}
	return res
}

// post issues one solve request and classifies the outcome.
func post(ctx context.Context, client *http.Client, addr string, body []byte) sample {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The run ended mid-request; not a server failure.
			return sample{status: -1}
		}
		return sample{err: err}
	}
	defer func() { _ = resp.Body.Close() }()
	s := sample{status: resp.StatusCode, latency: time.Since(start)}
	if resp.StatusCode == http.StatusOK {
		var ok struct {
			Cached bool `json:"cached"`
		}
		if derr := json.NewDecoder(resp.Body).Decode(&ok); derr == nil {
			s.cached = ok.Cached
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return s
}

// aggregator folds samples into the final summary. Only the collector
// goroutine touches it.
type aggregator struct {
	requests, ok, cached, shed, e5xx, other uint64
	latencies                               []time.Duration
}

// add folds one sample.
func (a *aggregator) add(s sample) {
	if s.status == -1 {
		return // cut off by the run deadline; not offered load
	}
	a.requests++
	switch {
	case s.err != nil:
		a.other++
	case s.status == http.StatusOK:
		a.ok++
		if s.cached {
			a.cached++
		}
		a.latencies = append(a.latencies, s.latency)
	case s.status == http.StatusTooManyRequests:
		a.shed++
	case s.status >= 500 && s.status < 600:
		a.e5xx++
	default:
		a.other++
	}
}

// summary renders the aggregate (AchievedQPS and run metadata are filled
// by the caller).
func (a *aggregator) summary() *result {
	res := &result{
		Requests:    a.requests,
		OK:          a.ok,
		Cached:      a.cached,
		Shed:        a.shed,
		Errors5xx:   a.e5xx,
		ErrorsOther: a.other,
	}
	if len(a.latencies) == 0 {
		return res
	}
	sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
	var sum time.Duration
	for _, d := range a.latencies {
		sum += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(a.latencies)-1))
		return a.latencies[i]
	}
	res.LatencyMs = latencySummary{
		P50:  ms(pct(0.50)),
		P95:  ms(pct(0.95)),
		P99:  ms(pct(0.99)),
		Max:  ms(a.latencies[len(a.latencies)-1]),
		Mean: ms(sum / time.Duration(len(a.latencies))),
	}
	return res
}
