package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"copmecs/internal/graph"
)

// postSolveWithCapacity posts g with a per-request server_capacity override
// and fails the test on any non-200 outcome.
func postSolveWithCapacity(t *testing.T, url string, g *graph.Graph, capacity float64) SolveResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"graph":  g,
		"params": map[string]any{"server_capacity": capacity},
	})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var sr SolveResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return sr
}

func TestSessionPipelineReusedAcrossParams(t *testing.T) {
	s := newTestServer(t, Config{BatchWait: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Same graph content (fresh decode each request), different system
	// parameters: distinct solution-cache keys, so both requests reach the
	// solver — but the second must reuse the first's compiled pipeline.
	g := testGraph(t, 5)
	first := postSolveWithCapacity(t, ts.URL, g, 900)
	second := postSolveWithCapacity(t, ts.URL, g, 1800)
	if first.Cached || second.Cached {
		t.Fatal("distinct params unexpectedly hit the solution cache")
	}
	if s.sess.CachedGraphs() != 1 {
		t.Fatalf("CachedGraphs = %d, want 1 (pipeline not shared)", s.sess.CachedGraphs())
	}
	st := s.Stats()
	if st.GraphCache.Size != 1 || st.GraphCache.Reused != 1 || st.GraphCache.Pipelines != 1 {
		t.Fatalf("graph cache stats = %+v, want size 1, reused 1, pipelines 1", st.GraphCache)
	}
	// Doubling capacity must not worsen the objective-relevant split: both
	// decisions come from the same pipeline, only the greedy differs.
	if first.LocalWork+first.RemoteWork != second.LocalWork+second.RemoteWork {
		t.Fatalf("total work drifted across params: %v vs %v",
			first.LocalWork+first.RemoteWork, second.LocalWork+second.RemoteWork)
	}
}

func TestGraphInternEvictionReleasesPipeline(t *testing.T) {
	s := newTestServer(t, Config{GraphCacheSize: 1, BatchWait: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postSolveWithCapacity(t, ts.URL, testGraph(t, 1), 900)
	postSolveWithCapacity(t, ts.URL, testGraph(t, 2), 900) // evicts graph 1
	if got := s.sess.CachedGraphs(); got != 1 {
		t.Fatalf("CachedGraphs = %d, want 1 (eviction must release pipeline state)", got)
	}
	st := s.Stats()
	if st.GraphCache.Size != 1 || st.GraphCache.Evictions != 1 {
		t.Fatalf("graph cache stats = %+v, want size 1, evictions 1", st.GraphCache)
	}
}
