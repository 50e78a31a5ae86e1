package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// defaultTestParams returns the paper's default system constants.
func defaultTestParams() mec.Params { return mec.Defaults() }

// testGraph builds the i-th of a family of small distinct chain graphs:
// 4+i nodes with i-dependent weights, so every index yields a different
// fingerprint and a nontrivial cut.
func testGraph(t testing.TB, i int) *graph.Graph {
	t.Helper()
	n := 4 + i%4
	g := graph.New(0)
	for v := 0; v < n; v++ {
		if err := g.AddNode(graph.NodeID(v), 20+float64((v+i)%5)*60); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(graph.NodeID(v), graph.NodeID(v+1), 5+float64((v*i)%4)*20); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

// solveBody marshals a POST /v1/solve body for g.
func solveBody(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"graph": g})
	if err != nil {
		t.Fatalf("marshal body: %v", err)
	}
	return body
}

// newTestServer builds (but does not Start) a Server with test-friendly
// timeouts on top of cfg.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewRejectsBadParams(t *testing.T) {
	if _, err := New(Config{Params: mec.Params{ServerCapacity: -1}}); err == nil {
		t.Fatal("New accepted negative ServerCapacity")
	}
}

func TestHandlerMethodsAndErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, path string
		body         string
		want         int
	}{
		{http.MethodGet, "/v1/solve", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/health", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/stats", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/solve", "not json", http.StatusBadRequest},
		{http.MethodPost, "/v1/solve", `{}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/solve", `{"graph":{"nodes":[{"id":0,"weight":1}],"edges":[]},"params":{"server_capacity":-3}}`, http.StatusBadRequest},
		{http.MethodGet, "/v1/health", "", http.StatusOK},
		{http.MethodGet, "/v1/healthz", "", http.StatusNotFound},
		{http.MethodGet, "/v1/stats", "", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("NewRequest: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s (body %q) = %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	if st := s.Stats(); st.BadRequests != 3 {
		t.Errorf("BadRequests = %d, want 3", st.BadRequests)
	}
}

func TestHealthEndpointReportsStateAndUptime(t *testing.T) {
	s := newTestServer(t, Config{ID: "backend-7"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	// health GETs /v1/health and decodes the probe document.
	health := func() (*httptest.ResponseRecorder, HealthResponse) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handleHealth(rec, httptest.NewRequest(http.MethodGet, "/v1/health", nil))
		var h HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("decode health: %v", err)
		}
		return rec, h
	}
	rec, h := health()
	if rec.Code != http.StatusOK || rec.Header().Get("Retry-After") != "" {
		t.Fatalf("health status = %d (Retry-After %q), want 200 without a hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if h.Status != "ready" {
		t.Fatalf("status = %q, want ready", h.Status)
	}
	if h.ID != "backend-7" {
		t.Fatalf("id = %q, want backend-7", h.ID)
	}
	if h.UptimeS < 0 {
		t.Fatalf("uptime_s = %v, want ≥ 0", h.UptimeS)
	}

	// POST is rejected; the endpoint is a read-only probe.
	rec = httptest.NewRecorder()
	s.handleHealth(rec, httptest.NewRequest(http.MethodPost, "/v1/health", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST health = %d, want 405", rec.Code)
	}

	// A draining server answers 503 with a Retry-After hint, so a load
	// balancer stops routing to it, and says why in the same document.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rec, h = health()
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != retryAfterSeconds {
		t.Fatalf("draining health status = %d (Retry-After %q), want 503 with %q",
			rec.Code, rec.Header().Get("Retry-After"), retryAfterSeconds)
	}
	if h.Status != "draining" || h.ID != "backend-7" {
		t.Fatalf("draining health = %+v, want status draining, id backend-7", h)
	}
}

func TestHandlerParamsOverrideTooBigGraph(t *testing.T) {
	s := newTestServer(t, Config{Limits: DecodeLimits{MaxNodes: 2}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		bytes.NewReader(solveBody(t, testGraph(t, 0)))) // 4 nodes > limit 2
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if !strings.Contains(e.Error, "too large") {
		t.Fatalf("error = %q, want a too-large message", e.Error)
	}
}

func TestHandlerShedsWhenQueueFull(t *testing.T) {
	// Batcher never started: the queue admits exactly QueueDepth leaders,
	// then every leader admission must shed with 429 + Retry-After.
	const depth = 3
	s := newTestServer(t, Config{QueueDepth: depth})
	for i := 0; i < depth; i++ {
		if !s.b.enqueue(&solveTask{p: newPending(fmt.Sprintf("occupier%d", i))}) {
			t.Fatalf("leader %d of %d shed below the queue depth", i+1, depth)
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		bytes.NewReader(solveBody(t, testGraph(t, 1))))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

func TestHandlerTimeoutWithoutBatcher(t *testing.T) {
	// Accepted but never dispatched (batcher not started): the request's own
	// deadline fires and maps to 504.
	s := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		bytes.NewReader(solveBody(t, testGraph(t, 2))))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts)
	}
}

func TestServeSolveAndCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 3)
	post := func() SolveResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			bytes.NewReader(solveBody(t, g)))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		var sr SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return sr
	}

	first := post()
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	if got, want := first.LocalWork+first.RemoteWork, g.TotalNodeWeight(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("local+remote work = %v, want total node weight %v", got, want)
	}
	for _, id := range first.Remote {
		if !g.HasNode(id) {
			t.Fatalf("decision offloads unknown node %d", id)
		}
	}

	second := post()
	if !second.Cached {
		t.Fatal("repeat request missed the cache")
	}
	if !reflect.DeepEqual(first.Remote, second.Remote) || second.LocalWork != first.LocalWork {
		t.Fatalf("cached decision differs: %+v vs %+v", first, second)
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Size != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.Solved != 2 || st.Requests != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Latency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", st.Latency.Count)
	}
}

func TestDrainRejectsAndCompletes(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One request through, then drain.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		bytes.NewReader(solveBody(t, testGraph(t, 4))))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()

	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !s.draining.Load() {
		t.Fatal("draining = false after Drain")
	}

	// New solve requests and health checks now answer 503.
	resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
		bytes.NewReader(solveBody(t, testGraph(t, 5))))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve status = %d, want 503", resp.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatalf("GET health: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain health = %d, want 503", hr.StatusCode)
	}
	if st := s.Stats(); st.DrainRejects != 1 || !st.Draining {
		t.Fatalf("stats after drain = %+v", st)
	}

	// Drain is idempotent.
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	checkBooks(t, s)
}

// TestBatchedContentionMatchesOffline drives dispatchRound directly with
// deterministic rounds and checks that every decision matches an offline
// core.Solve over the identical user list — the serving path must not change
// the paper's model, only feed it with live batches.
func TestBatchedContentionMatchesOffline(t *testing.T) {
	params := defaultTestParams()
	for _, roundSize := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("users=%d", roundSize), func(t *testing.T) {
			s := newTestServer(t, Config{Workers: 1})
			ctx := context.Background()

			tasks := make([]*solveTask, roundSize)
			var users []core.UserInput
			for i := range tasks {
				u := core.UserInput{Graph: testGraph(t, i)}
				tasks[i] = &solveTask{
					p:      newPending(fmt.Sprintf("k%d", i)),
					user:   u,
					params: params,
					pkey:   paramsDigest(params),
					fp:     fmt.Sprintf("fp%d", i),
				}
				users = append(users, u)
			}
			s.accepted.Add(roundSize)
			s.dispatchRound(ctx, tasks)

			want, err := core.Solve(ctx, users, core.Options{Params: params, Workers: 1})
			if err != nil {
				t.Fatalf("offline Solve: %v", err)
			}
			for i, task := range tasks {
				select {
				case <-task.p.done:
				default:
					t.Fatalf("task %d not resolved", i)
				}
				if task.p.err != nil {
					t.Fatalf("task %d: %v", i, task.p.err)
				}
				got := task.p.dec
				wantDec := decisionFor(fmt.Sprintf("fp%d", i), want, i, roundSize)
				if !reflect.DeepEqual(got, wantDec) {
					t.Errorf("user %d decision differs\n got: %+v\nwant: %+v", i, got, wantDec)
				}
				if got.BatchUsers != roundSize {
					t.Errorf("user %d BatchUsers = %d, want %d", i, got.BatchUsers, roundSize)
				}
			}
			if got := want.Eval.ActiveUsers; tasks[0].p.dec.ActiveUsers != got {
				t.Errorf("ActiveUsers = %d, want %d", tasks[0].p.dec.ActiveUsers, got)
			}
		})
	}
}

// TestFusedRoundCounters checks the fusion telemetry: a round spanning two
// distinct graphs counts as one fused round of two graphs, while a
// single-graph round (nothing to merge) leaves both counters alone.
func TestFusedRoundCounters(t *testing.T) {
	params := defaultTestParams()
	s := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	mkTask := func(key string, gi int) *solveTask {
		g := testGraph(t, gi)
		return &solveTask{
			p:      newPending(key),
			user:   core.UserInput{Graph: g},
			params: params,
			pkey:   paramsDigest(params),
			fp:     fingerprintOf(t, g),
		}
	}
	s.accepted.Add(2)
	s.dispatchRound(ctx, []*solveTask{mkTask("a", 0), mkTask("b", 1)})
	if got := s.st.fusedRounds.Load(); got != 1 {
		t.Fatalf("fusedRounds after 2-graph round = %d, want 1", got)
	}
	if got := s.st.fusedGraphs.Load(); got != 2 {
		t.Fatalf("fusedGraphs after 2-graph round = %d, want 2", got)
	}

	s.accepted.Add(1)
	s.dispatchRound(ctx, []*solveTask{mkTask("c", 2)})
	if got := s.st.fusedRounds.Load(); got != 1 {
		t.Fatalf("fusedRounds after 1-graph round = %d, want 1 still", got)
	}
	if got := s.st.fusedGraphs.Load(); got != 2 {
		t.Fatalf("fusedGraphs after 1-graph round = %d, want 2 still", got)
	}
}

// TestContentionGrowsWithBatch checks the paper's processor-sharing model is
// visible through the serving path: the same user's waiting time is
// monotonically non-decreasing in the number of co-batched offloading users.
func TestContentionGrowsWithBatch(t *testing.T) {
	params := defaultTestParams()
	params.DeviceCompute = 20 // weak devices: offloading always wins, so k grows with the batch
	probe := testGraph(t, 0)

	var lastWait float64
	var lastK int
	for _, extra := range []int{0, 3, 7} {
		s := newTestServer(t, Config{Workers: 1, Params: params})
		tasks := []*solveTask{{
			p:      newPending("probe"),
			user:   core.UserInput{Graph: probe},
			params: params,
			pkey:   paramsDigest(params),
			fp:     fingerprintOf(t, probe),
		}}
		for i := 0; i < extra; i++ {
			g := testGraph(t, 1+i)
			tasks = append(tasks, &solveTask{
				p:      newPending(fmt.Sprintf("bg%d", i)),
				user:   core.UserInput{Graph: g},
				params: params,
				pkey:   paramsDigest(params),
				fp:     fingerprintOf(t, g),
			})
		}
		s.accepted.Add(len(tasks))
		s.dispatchRound(context.Background(), tasks)

		dec := tasks[0].p.dec
		if tasks[0].p.err != nil || dec == nil {
			t.Fatalf("round of %d: %v", len(tasks), tasks[0].p.err)
		}
		if dec.ActiveUsers < lastK {
			t.Fatalf("ActiveUsers fell from %d to %d with a bigger batch", lastK, dec.ActiveUsers)
		}
		if dec.RemoteWork > 0 && dec.ActiveUsers > lastK && dec.Cost.WaitTime < lastWait {
			t.Fatalf("wait time fell from %v to %v as k grew to %d",
				lastWait, dec.Cost.WaitTime, dec.ActiveUsers)
		}
		lastWait, lastK = dec.Cost.WaitTime, dec.ActiveUsers
	}
	if lastK < 2 {
		t.Fatalf("final round had k = %d; contention never materialised", lastK)
	}
	if lastWait == 0 {
		t.Fatal("probe user never waited despite a scarce shared server")
	}
}

// TestSingleflightMultiplicityCountsTowardContention: duplicates collapsed
// onto one in-flight cell must still contend — a round with live
// multiplicity m solves as m users, not 1.
func TestSingleflightMultiplicityCountsTowardContention(t *testing.T) {
	params := defaultTestParams()
	params.DeviceCompute = 20
	s := newTestServer(t, Config{Workers: 1, Params: params})

	task := &solveTask{
		p:      newPending("dup"),
		user:   core.UserInput{Graph: testGraph(t, 0)},
		params: params,
		pkey:   paramsDigest(params),
	}
	task.p.mult.Add(4) // leader + 4 followers
	s.accepted.Add(1)
	s.dispatchRound(context.Background(), []*solveTask{task})

	dec := task.p.dec
	if task.p.err != nil || dec == nil {
		t.Fatalf("solve: %v", task.p.err)
	}
	if dec.BatchUsers != 5 {
		t.Fatalf("BatchUsers = %d, want 5 (multiplicity expansion)", dec.BatchUsers)
	}
	if dec.RemoteWork > 0 && dec.ActiveUsers != 5 {
		t.Fatalf("ActiveUsers = %d, want 5", dec.ActiveUsers)
	}
	if dec.RemoteWork > 0 && dec.Cost.WaitTime == 0 {
		t.Fatal("five contending twins but zero wait time")
	}
	if st := s.Stats(); st.Batch.Users != 5 || st.Batch.MaxUsers != 5 {
		t.Fatalf("batch stats = %+v", st.Batch)
	}
}

// slowEngine delays each cut so rounds stay in flight long enough for the
// integration test's duplicate requests to collapse onto them
// deterministically rather than racing the solver.
type slowEngine struct {
	delay time.Duration
	inner core.Engine
}

func (e slowEngine) Name() string { return e.inner.Name() }

func (e slowEngine) Bisect(ctx context.Context, off, tgt []int32, w []float64, sides []int32) ([]int32, []int32, int, error) {
	select {
	case <-time.After(e.delay):
	case <-ctx.Done():
		return nil, nil, 0, ctx.Err()
	}
	return e.inner.Bisect(ctx, off, tgt, w, sides)
}

// TestIntegrationConcurrentClients is the acceptance test: 64 concurrent
// clients with duplicate graphs against a running server. Every client gets
// a valid decision or a 429; duplicates collapse; repeats hit the cache; and
// a drain concurrent with a second wave loses no accepted request.
func TestIntegrationConcurrentClients(t *testing.T) {
	s := newTestServer(t, Config{
		Engine:     slowEngine{delay: 10 * time.Millisecond, inner: core.SpectralEngine{}},
		MaxBatch:   8,
		BatchWait:  10 * time.Millisecond,
		QueueDepth: 64,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 64
	const distinct = 8 // 8 distinct graphs → 8 duplicates of each
	bodies := make([][]byte, distinct)
	graphs := make([]*graph.Graph, distinct)
	for i := range bodies {
		graphs[i] = testGraph(t, i)
		bodies[i] = solveBody(t, graphs[i])
	}

	type result struct {
		status int
		resp   SolveResponse
	}
	run := func(n int) []result {
		t.Helper()
		results := make([]result, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
					bytes.NewReader(bodies[i%distinct]))
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				results[i].status = resp.StatusCode
				if resp.StatusCode == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&results[i].resp); err != nil {
						t.Errorf("client %d: decode: %v", i, err)
					}
				}
			}(i)
		}
		wg.Wait()
		return results
	}

	// Wave 1: every request must resolve to a valid decision or a shed.
	for i, r := range run(clients) {
		switch r.status {
		case http.StatusOK:
			g := graphs[i%distinct]
			if got, want := r.resp.LocalWork+r.resp.RemoteWork, g.TotalNodeWeight(); math.Abs(got-want) > 1e-9 {
				t.Errorf("client %d: local+remote = %v, want %v", i, got, want)
			}
			for _, id := range r.resp.Remote {
				if !g.HasNode(id) {
					t.Errorf("client %d: decision names unknown node %d", i, id)
				}
			}
		case http.StatusTooManyRequests:
			// Shed under pressure is a valid outcome.
		default:
			t.Errorf("client %d: status %d, want 200 or 429", i, r.status)
		}
	}
	st := s.Stats()
	if st.Deduped == 0 {
		t.Error("64 clients over 8 graphs produced zero singleflight collapses")
	}
	if st.Requests != clients {
		t.Errorf("Requests = %d, want %d", st.Requests, clients)
	}
	// Losslessness: every accepted request resolved one way or another.
	if st.Solved+st.Shed+st.Timeouts+st.SolveErrors != clients {
		t.Errorf("accounting leak: solved %d + shed %d + timeouts %d + errors %d != %d",
			st.Solved, st.Shed, st.Timeouts, st.SolveErrors, clients)
	}

	// Wave 2 (sequential): all cache hits now.
	for i := 0; i < distinct; i++ {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		var sr SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("repeat %d: decode: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !sr.Cached {
			t.Fatalf("repeat %d: status %d cached=%v, want a cache hit", i, resp.StatusCode, sr.Cached)
		}
	}
	if st := s.Stats(); st.Cache.Hits == 0 {
		t.Error("cache hit count = 0 after repeat wave")
	}

	// Wave 3: drain concurrent with traffic. Every response must be 200,
	// 429 or 503, and the books must still balance — no accepted request
	// may be lost.
	var wg sync.WaitGroup
	wave3 := make([]int, 32)
	for i := range wave3 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := solveBody(t, testGraph(t, 100+i)) // fresh graphs: no cache shortcut
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("wave3 client %d: %v", i, err)
				return
			}
			resp.Body.Close()
			wave3[i] = resp.StatusCode
		}(i)
	}
	time.Sleep(time.Millisecond) // let some of the wave be accepted first
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, code := range wave3 {
		if code != http.StatusOK && code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable {
			t.Errorf("wave3 client %d: status %d", i, code)
		}
	}
	final := s.Stats()
	if !final.Draining {
		t.Error("server not draining after Drain")
	}
	if final.Solved+final.Shed+final.DrainRejects+final.Timeouts+final.SolveErrors != final.Requests {
		t.Errorf("post-drain accounting leak: %+v", final)
	}
	if final.InFlight != 0 {
		t.Errorf("InFlight = %d after drain, want 0", final.InFlight)
	}
}

func BenchmarkServeSolveDistinct(b *testing.B) {
	s := newTestServer(b, Config{CacheSize: 16})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// 64 distinct bodies cycled round-robin: with a 16-entry cache most
	// requests miss and exercise the full batch+solve path.
	bodies := make([][]byte, 64)
	for i := range bodies {
		bodies[i] = solveBody(b, testGraph(b, i))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
				bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				b.Fatalf("status %d", resp.StatusCode)
			}
			i++
		}
	})
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(float64(st.Batch.Users)/float64(st.Batch.Rounds+1), "users/round")
}

func BenchmarkServeSolveCached(b *testing.B) {
	s := newTestServer(b, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := solveBody(b, testGraph(b, 0))
	warm, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	warm.Body.Close()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
}

// TestBodyBufPoolDropsLargeBuffers: a buffer one near-cap body grew must not
// go back into the pool, where it would stay pinned for as long as requests
// keep the pool cycling.
func TestBodyBufPoolDropsLargeBuffers(t *testing.T) {
	s := newTestServer(t, Config{})
	big := bytes.Repeat([]byte(" "), DefaultMaxBodyBytes-1)
	if st := postDirect(s, big, &nopResponseWriter{}, context.Background()); st != http.StatusBadRequest {
		t.Fatalf("a body of spaces: status %d, want 400", st)
	}
	// sync.Pool hands a goroutine back what it last put, so a buffer that
	// was returned is the one this Get sees.
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer bodyBufPool.Put(buf)
	if buf.Cap() > maxPooledBody {
		t.Fatalf("the pool kept a %d-byte buffer (limit %d)", buf.Cap(), maxPooledBody)
	}
}

// TestSolveEncodesOnce: the record /v1/solve builds once yields the
// fingerprint and cache key requestKey streams for, and is the payload
// decodeAccepted inverts.
func TestSolveEncodesOnce(t *testing.T) {
	params := defaultTestParams()
	req := &SolveRequest{Graph: testGraph(t, 2), UserOverrides: UserOverrides{FixedLocalWork: 3, Bandwidth: 40}}
	wantKey, wantFp, err := requestKey(req, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := newAcceptedRecord(req.Graph, params, req.UserOverrides)
	if len(rec) != cap(rec) {
		t.Errorf("record buffer: len %d, cap %d; want it sized exactly", len(rec), cap(rec))
	}
	fp := recordFingerprint(rec)
	if key := cacheKey(fp, params, req.UserOverrides); fp != wantFp || key != wantKey {
		t.Fatalf("record identity (%s, %s), requestKey (%s, %s)", key, fp, wantKey, wantFp)
	}
	got, err := decodeAccepted(rec, DecodeLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if got.params != params || got.p.key != wantKey || !got.user.Graph.Equal(req.Graph) {
		t.Fatalf("record decodes to %+v under %+v", got.user, got.params)
	}
}
