package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
	for i := 0; i < 2; i++ { // solve, then a body-digest cache hit
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
