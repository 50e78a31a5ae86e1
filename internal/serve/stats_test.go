package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"copmecs/internal/graph"
)

func TestHistogramBucketArraySize(t *testing.T) {
	// numLatencyBuckets must track latencyBoundsMs (+1 for +Inf); the
	// array-sized constant cannot reference the slice, so assert here.
	if numLatencyBuckets != len(latencyBoundsMs)+1 {
		t.Fatalf("numLatencyBuckets = %d, want len(latencyBoundsMs)+1 = %d",
			numLatencyBuckets, len(latencyBoundsMs)+1)
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Microsecond) // ≤ 1ms bucket
	h.Observe(3 * time.Millisecond)   // ≤ 5ms bucket
	h.Observe(10 * time.Second)       // +Inf bucket

	s := h.snapshot()
	if s.Count != 3 {
		t.Fatalf("Count = %d, want 3", s.Count)
	}
	if len(s.Buckets) != numLatencyBuckets {
		t.Fatalf("len(Buckets) = %d, want %d", len(s.Buckets), numLatencyBuckets)
	}
	// Cumulative: the 1ms bucket holds 1, the 5ms bucket holds 2, the final
	// +Inf bucket (LE sentinel 0) holds everything.
	if s.Buckets[0].LE != 1 || s.Buckets[0].Count != 1 {
		t.Fatalf("bucket[0] = %+v", s.Buckets[0])
	}
	if s.Buckets[2].LE != 5 || s.Buckets[2].Count != 2 {
		t.Fatalf("bucket[2] = %+v", s.Buckets[2])
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.LE != 0 || last.Count != 3 {
		t.Fatalf("+Inf bucket = %+v", last)
	}
	// Mean of 0.5ms + 3ms + 10000ms ≈ 3334.5ms.
	if s.MeanMs < 3000 || s.MeanMs > 3500 {
		t.Fatalf("MeanMs = %v", s.MeanMs)
	}
	// Cumulative counts never decrease.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Count < s.Buckets[i-1].Count {
			t.Fatalf("bucket %d count %d < bucket %d count %d",
				i, s.Buckets[i].Count, i-1, s.Buckets[i-1].Count)
		}
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.snapshot()
	if s.Count != 0 || s.MeanMs != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestObserveBatchMax(t *testing.T) {
	var c counters
	c.observeBatch(3)
	c.observeBatch(7)
	c.observeBatch(5)
	if got := c.batches.Load(); got != 3 {
		t.Fatalf("batches = %d, want 3", got)
	}
	if got := c.batchedUsers.Load(); got != 15 {
		t.Fatalf("batchedUsers = %d, want 15", got)
	}
	if got := c.maxBatch.Load(); got != 7 {
		t.Fatalf("maxBatch = %d, want 7", got)
	}
}

func TestStatsJSONShapeKeepsFlatFields(t *testing.T) {
	// The /v1/stats document must keep every pre-existing flat field, so
	// dashboards and clients decoding it into serve.Stats keep working.
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	body := solveBody(t, testGraph(t, 0))
	w := &nopResponseWriter{}
	for i := 0; i < 2; i++ { // solve, then a body-key cache hit
		if st := postDirect(s, body, w, ctx); st != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, st)
		}
	}

	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	for _, key := range []string{
		"requests", "solved", "bad_requests", "shed", "rate_limited",
		"drain_rejects", "deduped", "solve_errors", "timeouts", "in_flight",
		"draining", "cache", "graph_cache", "batch", "incremental", "latency_ms",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("flat field %q missing from /v1/stats", key)
		}
	}
	cache := doc["cache"].(map[string]any)
	for _, key := range []string{"hits", "misses", "body_hits", "size", "capacity", "evictions"} {
		if _, ok := cache[key]; !ok {
			t.Fatalf("cache field %q missing", key)
		}
	}
	if cache["capacity"].(float64) != DefaultCacheSize {
		t.Fatalf("cache capacity = %v, want %d", cache["capacity"], DefaultCacheSize)
	}
	if cache["body_hits"].(float64) != 1 {
		t.Fatalf("body_hits = %v, want 1 (second request was byte-identical)", cache["body_hits"])
	}
	gc := doc["graph_cache"].(map[string]any)
	for _, key := range []string{"size", "capacity", "reused", "evictions", "pipelines"} {
		if _, ok := gc[key]; !ok {
			t.Fatalf("graph_cache field %q missing", key)
		}
	}
	batch := doc["batch"].(map[string]any)
	for _, key := range []string{"rounds", "users", "max_users", "fused_rounds", "fused_graphs", "queue_depth"} {
		if _, ok := batch[key]; !ok {
			t.Fatalf("batch field %q missing", key)
		}
	}
	// The in-memory default carries no durability section: the key is
	// omitted entirely, not rendered as null.
	if raw, ok := doc["durability"]; ok {
		t.Fatalf("durability key present on in-memory server: %v", raw)
	}
}

// checkBooks waits for s to come to rest, then asserts its books balance:
// every arrival recorded exactly one outcome, every outcome one latency
// observation, and the cache fields split the 200s.
func checkBooks(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "in_flight to drop to 0", func() bool { return s.st.inFlight.Load() == 0 })
	st := s.Stats()
	var answered uint64
	for e := range st.Outcomes {
		for _, n := range st.Outcomes[e] {
			answered += n
		}
	}
	if arrivals := st.Requests + st.Incremental.Mutates; answered != arrivals {
		t.Errorf("outcomes sum to %d, arrivals (requests + mutates) %d: %v", answered, arrivals, st.Outcomes)
	}
	if st.Latency.Count != answered {
		t.Errorf("latency count %d, outcomes %d", st.Latency.Count, answered)
	}
	if got := st.Cache.Hits + st.Cache.Misses + st.Deduped; got != st.Solved {
		t.Errorf("hits %d + misses %d + deduped %d != solved %d", st.Cache.Hits, st.Cache.Misses, st.Deduped, st.Solved)
	}
}

// cellMult reads the live multiplicity of key's in-flight cell under the
// flight lock; 0 when no cell is in flight for key.
func cellMult(s *Server, key string) int64 {
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	if p, ok := s.flight.m[key]; ok {
		return p.mult.Load()
	}
	return 0
}

// TestEveryRequestRecordsOneOutcome: two twin mutates whose shared round
// fails, a client that hangs up while its solve is held, and a GET — each
// answered request records exactly one outcome, and none counts as served.
func TestEveryRequestRecordsOneOutcome(t *testing.T) {
	f := newMutateFixture(t)
	ts := httptest.NewServer(f.s.Handler())
	defer ts.Close()
	before := f.s.Stats()
	f.eng.hold.Store(true)

	// A client hangs up while its solve's round is held: a 500.
	hctx, hangUp := context.WithCancel(context.Background())
	gone := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(solveBody(t, testGraph(t, 3))))
		f.s.Handler().ServeHTTP(gone, req.WithContext(hctx))
	}()
	awaitParked(t, f.eng.entered, done)
	hangUp()
	<-done
	if gone.Code != http.StatusInternalServerError || gone.Header().Get(OutcomeHeader) != "error" {
		t.Errorf("hung-up solve: status %d outcome %q, want 500 error", gone.Code, gone.Header().Get(OutcomeHeader))
	}
	mid := f.s.Stats()
	if mid.SolveErrors != before.SolveErrors+1 {
		t.Errorf("solve_errors after the hang-up = %d, want %d", mid.SolveErrors, before.SolveErrors+1)
	}

	// Two twin mutates share one cell, whose round then fails: two 500s.
	status := make(chan int, 2)
	go func() { status <- tryPostJSON(f.url+"/v1/mutate", f.body, nil) }()
	awaitParked(t, f.eng.entered, status)
	go func() { status <- tryPostJSON(f.url+"/v1/mutate", f.body, nil) }()
	key := cacheKey(fingerprintOf(t, f.mutated), f.s.cfg.Params, UserOverrides{})
	waitFor(t, "the twin mutate to attach", func() bool { return cellMult(f.s, key) == 2 })
	f.eng.fail.Store(true)
	close(f.eng.release)
	for i := 0; i < 2; i++ {
		if st := <-status; st != http.StatusInternalServerError {
			t.Errorf("twin mutate %d: status %d, want 500", i, st)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get(OutcomeHeader) != "method" {
		t.Errorf("GET /v1/solve: status %d outcome %q, want 405 method", resp.StatusCode, resp.Header.Get(OutcomeHeader))
	}

	checkBooks(t, f.s)
	after := f.s.Stats()
	if got := after.SolveErrors - mid.SolveErrors; got != 2 {
		t.Errorf("solve_errors grew by %d for the two 500s, want 2", got)
	}
	if got := after.SolveErrors - before.SolveErrors; got != 3 {
		t.Errorf("solve_errors grew by %d in all, want 3 (the hang-up and the twins)", got)
	}
	if got := after.Incremental.Errors - before.Incremental.Errors; got != 2 {
		t.Errorf("incremental.errors grew by %d, want 2", got)
	}
	if after.Solved != before.Solved || after.Deduped != before.Deduped || after.Cache.Misses != before.Cache.Misses {
		t.Errorf("solved %d → %d, deduped %d → %d, misses %d → %d: no request was served",
			before.Solved, after.Solved, before.Deduped, after.Deduped, before.Cache.Misses, after.Cache.Misses)
	}
	if got := after.Requests + after.Incremental.Mutates - before.Requests - before.Incremental.Mutates; got != 4 {
		t.Errorf("arrivals grew by %d, want 4", got)
	}
}

// TestOutcomeHeaderNamesThePath: every success names the path that answered
// it, in the reply header and in the outcome array, and /v1/stats carries
// the array and the per-class latency.
func TestOutcomeHeaderNamesThePath(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	send := func(path string, body []byte, want string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get(OutcomeHeader) != want {
			t.Fatalf("%s: status %d outcome %q, want 200 %q", path, resp.StatusCode, resp.Header.Get(OutcomeHeader), want)
		}
		return out
	}
	g := chainGraph(t, 60)
	body := solveBody(t, g)
	send("/v1/solve", body, "solved")
	send("/v1/solve", body, "body_hit")
	respaced := append([]byte(" "), body...)
	send("/v1/solve", respaced, "hit")
	send("/v1/solve", respaced, "body_hit")
	mb := mutateBody(t, fingerprintOf(t, g), &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 0, Weight: 77}}})
	send("/v1/mutate", mb, "delta")
	send("/v1/mutate", mb, "hit")

	checkBooks(t, s)
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var doc struct {
		Outcomes       map[string]map[string]uint64 `json:"outcomes"`
		LatencyByClass map[string]HistogramSnapshot `json:"latency_by_class"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Outcomes["solve"]) != int(nOutcome) || len(doc.Outcomes["mutate"]) != int(nOutcome) {
		t.Fatalf("outcomes = %v, want every outcome named for both endpoints", doc.Outcomes)
	}
	sv, mu := doc.Outcomes["solve"], doc.Outcomes["mutate"]
	if sv["solved"] != 1 || sv["body_hit"] != 2 || sv["hit"] != 1 || mu["delta"] != 1 || mu["hit"] != 1 {
		t.Errorf("outcomes = %v", doc.Outcomes)
	}
	for class, want := range map[string]uint64{"hit": 4, "miss": 1, "mutate": 1, "error": 0} {
		if got := doc.LatencyByClass[class].Count; got != want {
			t.Errorf("latency_by_class[%s].count = %d, want %d", class, got, want)
		}
	}
	var back Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Outcomes != s.Stats().Outcomes {
		t.Errorf("outcomes do not round-trip: %v vs %v", back.Outcomes, s.Stats().Outcomes)
	}
}
