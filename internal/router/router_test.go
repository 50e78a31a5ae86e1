package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copmecs/internal/faultnet"
	"copmecs/internal/serve"
)

// makeBody fabricates the i-th distinct solve request body (distinct graph
// content ⇒ distinct fingerprint ⇒ independent ring placement).
func makeBody(i int) string {
	return fmt.Sprintf(`{"graph":{"nodes":[{"id":0,"weight":%d},{"id":1,"weight":120},`+
		`{"id":2,"weight":200},{"id":3,"weight":30}],`+
		`"edges":[{"u":0,"v":1,"weight":40},{"u":1,"v":2,"weight":5},{"u":2,"v":3,"weight":60}]}}`, 50+i)
}

// fingerprintOf resolves a body's routing key the same way the router does.
func fingerprintOf(t *testing.T, body string) string {
	t.Helper()
	req, err := serve.DecodeSolveRequest(strings.NewReader(body), serve.DecodeLimits{})
	if err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	fp, err := req.Graph.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

// startBackend boots a real serving backend on an ephemeral port.
func startBackend(t *testing.T, id string) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{ID: id})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startRouter builds and starts a Router plus an HTTP front for it.
func startRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// postSolve sends one body through the router and returns status and body.
func postSolve(t *testing.T, base, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, string(b)
}

// routerStats fetches and decodes the router's aggregated stats document.
func routerStats(t *testing.T, base string) StatsDocument {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var doc StatsDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return doc
}

func TestRouterStickyRoutingAndFleetStats(t *testing.T) {
	a := startBackend(t, "be-a")
	b := startBackend(t, "be-b")
	rt, front := startRouter(t, Config{
		Backends: []BackendConfig{
			{Name: "be-a", URL: a.URL},
			{Name: "be-b", URL: b.URL},
		},
		DisableHedge:  true,
		ProbeInterval: 50 * time.Millisecond,
	})

	// Two passes over a corpus of distinct bodies: the second pass must be
	// all backend cache hits — only possible if every fingerprint returned
	// to the backend that solved it the first time.
	const corpus = 16
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < corpus; i++ {
			status, body := postSolve(t, front.URL, makeBody(i))
			if status != http.StatusOK {
				t.Fatalf("pass %d body %d: status %d: %s", pass, i, status, body)
			}
			wantCached := pass == 1
			var res struct {
				Cached bool `json:"cached"`
			}
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatalf("response decode: %v", err)
			}
			if res.Cached != wantCached {
				t.Fatalf("pass %d body %d: cached = %v, want %v", pass, i, res.Cached, wantCached)
			}
		}
	}

	doc := routerStats(t, front.URL)
	if doc.Router.Requests != 2*corpus {
		t.Fatalf("router requests = %d, want %d", doc.Router.Requests, 2*corpus)
	}
	// Second-pass bodies are byte-identical: they must route via the
	// identity cache without a JSON decode.
	if doc.Router.IdentHits != corpus || doc.Router.IdentMisses != corpus {
		t.Fatalf("ident hits/misses = %d/%d, want %d/%d",
			doc.Router.IdentHits, doc.Router.IdentMisses, corpus, corpus)
	}
	if doc.Fleet.BackendsReporting != 2 {
		t.Fatalf("backends reporting = %d, want 2", doc.Fleet.BackendsReporting)
	}
	if doc.Fleet.Requests != 2*corpus || doc.Fleet.Solved != 2*corpus {
		t.Fatalf("fleet requests/solved = %d/%d, want %d each",
			doc.Fleet.Requests, doc.Fleet.Solved, 2*corpus)
	}
	if doc.Fleet.CacheHits != corpus {
		t.Fatalf("fleet cache hits = %d, want %d", doc.Fleet.CacheHits, corpus)
	}
	if doc.Fleet.Latency.Count != 2*corpus {
		t.Fatalf("merged latency count = %d, want %d", doc.Fleet.Latency.Count, 2*corpus)
	}
	checkFleetBooks(t, doc.Fleet)
	if doc.Fleet.BodyHits != corpus || doc.Fleet.CacheMisses != corpus || doc.Fleet.DrainRejects != 0 {
		t.Fatalf("fleet body hits / misses / drain rejects = %d/%d/%d, want %d/%d/0",
			doc.Fleet.BodyHits, doc.Fleet.CacheMisses, doc.Fleet.DrainRejects, corpus, corpus)
	}
	if hit, miss := doc.Fleet.LatencyByClass["hit"].Count, doc.Fleet.LatencyByClass["miss"].Count; hit != corpus || miss != corpus {
		t.Fatalf("fleet latency by class hit/miss = %d/%d, want %d each", hit, miss, corpus)
	}
	// With 16 random fingerprints over 2 members, both sides of the ring
	// must have seen traffic, and the forwards must sum to the requests
	// (no hedges, no failovers).
	var forwarded uint64
	for _, bs := range doc.Router.Backends {
		forwarded += bs.Forwarded
		if bs.State != "ready" {
			t.Fatalf("backend %s state = %s", bs.Name, bs.State)
		}
	}
	if forwarded != 2*corpus {
		t.Fatalf("total forwarded = %d, want %d", forwarded, 2*corpus)
	}
	if len(doc.BackendStats) != 2 {
		t.Fatalf("backend_stats has %d entries, want 2", len(doc.BackendStats))
	}

	// The ring's placement must match what the stats claim: every body's
	// fingerprint owner is stable.
	ring := rt.ring.Load()
	for i := 0; i < corpus; i++ {
		if _, ok := ownerOf(ring, fingerprintOf(t, makeBody(i))); !ok {
			t.Fatalf("body %d has no owner", i)
		}
	}

	// The backend's outcome header reaches the client through the router.
	resp, err := http.Post(front.URL+"/v1/solve", "application/json", strings.NewReader(makeBody(0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(serve.OutcomeHeader); got != "body_hit" {
		t.Fatalf("%s through the router = %q, want body_hit", serve.OutcomeHeader, got)
	}
}

// checkFleetBooks asserts that a quiescent fleet's books balance: the
// summed outcomes equal the summed arrivals, and every outcome has one
// merged latency observation.
func checkFleetBooks(t *testing.T, f FleetStatus) {
	t.Helper()
	var answered uint64
	for e := range f.Outcomes {
		for _, n := range f.Outcomes[e] {
			answered += n
		}
	}
	if arrivals := f.Requests + f.Incremental.Mutates; answered != arrivals {
		t.Errorf("fleet outcomes sum to %d, arrivals %d: %+v", answered, arrivals, f)
	}
	if f.Latency.Count != answered {
		t.Errorf("fleet latency count %d, outcomes %d", f.Latency.Count, answered)
	}
	if f.CacheHits+f.CacheMisses+f.Deduped != f.Solved {
		t.Errorf("fleet hits %d + misses %d + deduped %d != solved %d", f.CacheHits, f.CacheMisses, f.Deduped, f.Solved)
	}
}

func TestRouterFailoverAndQuarantineOnCrashedBackend(t *testing.T) {
	a := startBackend(t, "be-a")
	b := startBackend(t, "be-b")
	rt, front := startRouter(t, Config{
		Backends: []BackendConfig{
			{Name: "be-a", URL: a.URL},
			{Name: "be-b", URL: b.URL},
		},
		DisableHedge:    true,
		ProbeInterval:   25 * time.Millisecond,
		QuarantineAfter: 1,
	})

	// Kill backend A outright: its address refuses connections from now on.
	a.Close()

	// Every request must still succeed: bodies owned by A fail over to B.
	for i := 0; i < 20; i++ {
		status, body := postSolve(t, front.URL, makeBody(i))
		if status != http.StatusOK {
			t.Fatalf("body %d: status %d after backend crash: %s", i, status, body)
		}
	}

	// A is quarantined — by the proxy's failure report or the prober,
	// whichever ran first.
	deadline := time.Now().Add(3 * time.Second)
	for {
		doc := routerStats(t, front.URL)
		var stateA string
		for _, bs := range doc.Router.Backends {
			if bs.Name == "be-a" {
				stateA = bs.State
			}
		}
		if stateA == "quarantined" {
			if doc.Router.Probes.Quarantines < 1 {
				t.Fatalf("quarantined without a counted transition: %+v", doc.Router.Probes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("be-a never quarantined: %+v", doc.Router.Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The live ring now contains only B.
	ring := rt.ring.Load()
	if len(ring.Members()) != 1 || ring.Members()[0] != "be-b" {
		t.Fatalf("ring members = %v, want [be-b]", ring.Members())
	}
}

// TestRouterFlappingBackendUnderLoad is the -race integration test: one
// backend flaps (crash, restart, crash, restart) behind a faultnet
// listener while concurrent clients hammer the router. Zero requests may
// fail — failover covers the outages, probing re-admits the survivor —
// and the race detector watches the prober/proxy/stats interleavings.
func TestRouterFlappingBackendUnderLoad(t *testing.T) {
	// Backend A serves through a fault-injectable listener.
	sa, err := serve.New(serve.Config{ID: "be-a"})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sa.Start(ctx)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	flaky := faultnet.Wrap(raw, faultnet.Config{})
	srvA := &http.Server{Handler: sa.Handler()}
	go func() { _ = srvA.Serve(flaky) }()
	t.Cleanup(func() { _ = srvA.Close() })

	b := startBackend(t, "be-b")
	rt, front := startRouter(t, Config{
		Backends: []BackendConfig{
			{Name: "be-a", URL: "http://" + flaky.Addr().String()},
			{Name: "be-b", URL: b.URL},
		},
		DisableHedge:    true,
		ProbeInterval:   20 * time.Millisecond,
		QuarantineAfter: 1,
		ReadmitAfter:    1,
	})

	const workers = 4
	var failures atomic.Uint64
	var sent atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				body := makeBody((w*7 + i) % 12)
				resp, err := client.Post(front.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				sent.Add(1)
			}
		}(w)
	}

	// Flap A twice: crash (blackout + sever live conns), restart, repeat.
	for cycle := 0; cycle < 2; cycle++ {
		time.Sleep(150 * time.Millisecond)
		flaky.SetBlackout(true)
		flaky.ResetAll()
		time.Sleep(200 * time.Millisecond)
		flaky.SetBlackout(false)
	}
	// Give the prober time to re-admit A, then stop the load.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d requests failed during flapping", f, sent.Load())
	}
	if sent.Load() == 0 {
		t.Fatal("no requests completed")
	}

	// A must end the test re-admitted and the transitions counted.
	deadline := time.Now().Add(3 * time.Second)
	for {
		doc := routerStats(t, front.URL)
		var stateA string
		for _, bs := range doc.Router.Backends {
			if bs.Name == "be-a" {
				stateA = bs.State
			}
		}
		if stateA == "ready" && doc.Router.Probes.Readmissions >= 1 {
			if doc.Router.Probes.Quarantines < 1 {
				t.Fatalf("flapped without quarantines: %+v", doc.Router.Probes)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("be-a not re-admitted: state %s, probes %+v", stateA, doc.Router.Probes)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(rt.ring.Load().Members()) != 2 {
		t.Fatalf("ring size = %d after recovery, want 2", len(rt.ring.Load().Members()))
	}
}

func TestRouterHedgesSlowPrimary(t *testing.T) {
	// Two scripted backends: the body's ring owner stalls, the other
	// answers instantly. The hedge must fire after the cold budget
	// (hedgeCold: the first request has no latency samples) and win
	// long before the stall ends.
	body := makeBody(0)
	fp := fingerprintOf(t, body)
	owner, _ := ownerOf(NewRing([]string{"be-a", "be-b"}), fp)

	canned := `{"remote":[1],"cached":false}`
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server arms its background read and can
		// cancel r.Context() when the router abandons this attempt.
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done(): // canceled as the hedge loser
			return
		case <-time.After(10 * time.Second):
		}
		_, _ = io.WriteString(w, canned)
	}))
	t.Cleanup(slow.Close)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, canned)
	}))
	t.Cleanup(fast.Close)

	urls := map[string]string{owner: slow.URL}
	other := "be-a"
	if owner == "be-a" {
		other = "be-b"
	}
	urls[other] = fast.URL

	rt, front := startRouter(t, Config{
		Backends: []BackendConfig{
			{Name: "be-a", URL: urls["be-a"]},
			{Name: "be-b", URL: urls["be-b"]},
		},
		ProbeInterval: time.Hour, // scripted handlers answer /v1/health with the canned body; keep the prober out of the picture
	})

	start := time.Now()
	status, got := postSolve(t, front.URL, body)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("hedged request took %v; the hedge did not rescue it", elapsed)
	}
	if f, w := rt.hedge.fired.Load(), rt.hedge.won.Load(); f != 1 || w != 1 {
		t.Fatalf("hedges fired/won = %d/%d, want 1/1", f, w)
	}
}

func TestRouterDrainRejectsNewWork(t *testing.T) {
	b := startBackend(t, "be-a")
	rt, front := startRouter(t, Config{
		Backends:     []BackendConfig{{Name: "be-a", URL: b.URL}},
		DisableHedge: true,
	})

	if status, _ := postSolve(t, front.URL, makeBody(0)); status != http.StatusOK {
		t.Fatalf("pre-drain solve status %d", status)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := rt.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	status, body := postSolve(t, front.URL, makeBody(1))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve = %d (%s), want 503", status, body)
	}
	hz, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", hz.StatusCode)
	}
	// The probe document stays 200 but reports the drain.
	hr, err := http.Get(front.URL + "/v1/health")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatalf("health decode: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || h.Status != "draining" {
		t.Fatalf("draining health = %d/%q, want 200/draining", hr.StatusCode, h.Status)
	}
	if got := routerStats(t, front.URL); got.Router.DrainRejects != 1 || !got.Router.Draining {
		t.Fatalf("drain stats = rejects %d draining %v", got.Router.DrainRejects, got.Router.Draining)
	}
}

func TestRouterRejectsBadBodies(t *testing.T) {
	b := startBackend(t, "be-a")
	_, front := startRouter(t, Config{
		Backends:     []BackendConfig{{Name: "be-a", URL: b.URL}},
		DisableHedge: true,
	})
	resp, err := http.Post(front.URL+"/v1/solve", "application/json", strings.NewReader(`{"nope`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", resp.StatusCode)
	}
	// GET on the solve endpoint is refused without touching a backend.
	gr, err := http.Get(front.URL + "/v1/solve")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET solve = %d, want 405", gr.StatusCode)
	}
	if doc := routerStats(t, front.URL); doc.Router.BadRequests != 1 {
		t.Fatalf("bad_requests = %d, want 1", doc.Router.BadRequests)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no backends accepted")
	}
	if _, err := New(Config{Backends: []BackendConfig{
		{Name: "a", URL: "http://127.0.0.1:1"},
		{Name: "a", URL: "http://127.0.0.1:2"},
	}}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := New(Config{Backends: []BackendConfig{{Name: "a", URL: "not a url"}}}); err == nil {
		t.Error("bad URL accepted")
	}
	if _, err := New(Config{Backends: []BackendConfig{{Name: "", URL: "http://127.0.0.1:1"}}}); err == nil {
		t.Error("empty name accepted")
	}
}

// TestProxyResponsesOnBothEndpoints walks every arm of the one handler
// body behind /v1/solve and /v1/mutate: the router's own 405 / 400 / 503 /
// 502 and the backend's reply passed through verbatim.
func TestProxyResponsesOnBothEndpoints(t *testing.T) {
	live := startBackend(t, "be-live")
	_, front := startRouter(t, Config{
		Backends:     []BackendConfig{{Name: "be-live", URL: live.URL}},
		DisableHedge: true,
	})
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // a URL nothing listens on
	_, orphan := startRouter(t, Config{
		Backends:      []BackendConfig{{Name: "be-dead", URL: dead.URL}},
		DisableHedge:  true,
		ProbeInterval: time.Hour, // only proxy failures move the backend's state
	})
	drained, drainedFront := startRouter(t, Config{
		Backends:     []BackendConfig{{Name: "be-live", URL: live.URL}},
		DisableHedge: true,
	})
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := drained.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	unknownBase := fmt.Sprintf(`{"base":%q,"delta":{}}`, strings.Repeat("0", 64))
	cases := []struct {
		name, url, path, method, body string
		status                        int
		retryAfter                    string
	}{
		{"solve wrong method", front.URL, "/v1/solve", http.MethodGet, "", http.StatusMethodNotAllowed, ""},
		{"mutate wrong method", front.URL, "/v1/mutate", http.MethodGet, "", http.StatusMethodNotAllowed, ""},
		{"solve undecodable", front.URL, "/v1/solve", http.MethodPost, `{"graph":`, http.StatusBadRequest, ""},
		{"mutate undecodable", front.URL, "/v1/mutate", http.MethodPost, `{"base":`, http.StatusBadRequest, ""},
		{"mutate bad fingerprint", front.URL, "/v1/mutate", http.MethodPost, `{"base":"ABC","delta":{}}`, http.StatusBadRequest, ""},
		{"solve verbatim 200", front.URL, "/v1/solve", http.MethodPost, makeBody(3), http.StatusOK, ""},
		{"mutate verbatim 404", front.URL, "/v1/mutate", http.MethodPost, unknownBase, http.StatusNotFound, ""},
		{"solve all replicas failed", orphan.URL, "/v1/solve", http.MethodPost, makeBody(3), http.StatusBadGateway, ""},
		// The failure above quarantined the only backend: the ready ring is
		// empty and the full-membership ring still supplies a candidate.
		{"solve via the last-resort ring", orphan.URL, "/v1/solve", http.MethodPost, makeBody(3), http.StatusBadGateway, ""},
		{"mutate via the last-resort ring", orphan.URL, "/v1/mutate", http.MethodPost, unknownBase, http.StatusBadGateway, ""},
		{"solve while draining", drainedFront.URL, "/v1/solve", http.MethodPost, makeBody(3), http.StatusServiceUnavailable, "1"},
		{"mutate while draining", drainedFront.URL, "/v1/mutate", http.MethodPost, unknownBase, http.StatusServiceUnavailable, "1"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, c.url+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var doc struct {
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != c.status || resp.Header.Get("Retry-After") != c.retryAfter {
			t.Errorf("%s: status %d Retry-After %q, want %d %q", c.name,
				resp.StatusCode, resp.Header.Get("Retry-After"), c.status, c.retryAfter)
		}
		if c.status != http.StatusOK && (derr != nil || doc.Error == "") {
			t.Errorf("%s: error reply is not {\"error\": ...}: %v", c.name, derr)
		}
	}
	if doc := routerStats(t, front.URL); doc.Router.BadRequests != 3 {
		t.Errorf("bad_requests = %d, want 3", doc.Router.BadRequests)
	}
	if doc := routerStats(t, orphan.URL); doc.Router.Unreachable != 3 {
		t.Errorf("unreachable = %d, want 3", doc.Router.Unreachable)
	}
	if doc := routerStats(t, drainedFront.URL); doc.Router.DrainRejects != 2 {
		t.Errorf("drain_rejects = %d, want 2", doc.Router.DrainRejects)
	}
}
