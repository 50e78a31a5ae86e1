package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestStatsSnapshotDuringSolveStorm hammers GET /v1/stats while 64
// concurrent clients drive /v1/solve over a mix of repeat and distinct
// graphs. Under -race (the CI default for this package) it proves the
// snapshot reads every atomic counter, histogram bucket, table size and
// the queue gauge without a data race; the assertions check the
// books still balance once the storm settles.
func TestStatsSnapshotDuringSolveStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short mode")
	}
	s := newTestServer(t, Config{CacheSize: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	// 8 distinct graphs over an 8-entry cache: early requests solve, the
	// rest split between cache hits and singleflight followers.
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = solveBody(t, testGraph(t, i))
	}

	const clients, perClient = 64, 20
	stop := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer statsWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Exercise both the struct snapshot and the HTTP rendering.
				_ = s.Stats()
				w := httptest.NewRecorder()
				s.handleStats(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
				if w.Code != http.StatusOK {
					t.Errorf("stats status = %d", w.Code)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &nopResponseWriter{}
			for i := 0; i < perClient; i++ {
				body := bodies[(c+i)%len(bodies)]
				if st := postDirect(s, body, w, ctx); st != http.StatusOK {
					t.Errorf("solve status = %d", st)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	statsWG.Wait()

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st := s.Stats()
	const total = clients * perClient
	if st.Requests != total {
		t.Fatalf("requests = %d, want %d", st.Requests, total)
	}
	if st.Solved != total {
		t.Fatalf("solved = %d, want %d (every request got a 200)", st.Solved, total)
	}
	if got := st.Cache.Hits + st.Cache.Misses + st.Deduped; got != total {
		t.Fatalf("hits(%d) + misses(%d) + deduped(%d) = %d, want %d",
			st.Cache.Hits, st.Cache.Misses, st.Deduped, got, total)
	}
	if st.Latency.Count != total {
		t.Fatalf("latency count = %d, want %d", st.Latency.Count, total)
	}
	if st.InFlight != 0 {
		t.Fatalf("in-flight = %d after the storm settled", st.InFlight)
	}
	checkBooks(t, s)
}
