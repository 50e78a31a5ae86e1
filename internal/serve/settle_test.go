package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"copmecs/internal/graph"
)

// The tests below pin the batcher's settled exit: a round closes as soon as
// every request the server holds is in it, and BatchWait — two seconds
// here, so that sleeping it out fails a test instead of hiding in it — is
// only ever spent on a request that is at the server but not yet queued.
// Ordering comes from counters the server itself publishes (waitFor), never
// from sleeps.

const settleWait = 2 * time.Second

// startSettleServer starts a server with the long window. Weak devices make
// every user offload, so a round's ActiveUsers is its size.
func startSettleServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.BatchWait = settleWait
	cfg.Params = defaultTestParams()
	cfg.Params.DeviceCompute = 20
	s := newTestServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	return s
}

// settleGraph is the i-th of an unbounded family of distinct small chains.
func settleGraph(t testing.TB, i int) *graph.Graph {
	t.Helper()
	g := graph.New(0)
	for v := 0; v < 5; v++ {
		if err := g.AddNode(graph.NodeID(v), 100+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 4; v++ {
		if err := g.AddEdge(graph.NodeID(v), graph.NodeID(v+1), 5+float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// call is one request running against the handler in its own goroutine.
type call struct {
	rec  *httptest.ResponseRecorder
	done chan struct{}
}

// post starts a POST to path; no socket is involved, so the request is
// inside handle the moment its body is first read.
func post(s *Server, path string, body io.Reader) *call {
	c := &call{rec: httptest.NewRecorder(), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		s.Handler().ServeHTTP(c.rec, httptest.NewRequest(http.MethodPost, path, body))
	}()
	return c
}

// wait blocks until the call is answered and returns its status, decoding
// the body into out when non-nil.
func (c *call) wait(t *testing.T, out any) int {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		t.Fatal("request was never answered")
	}
	if out != nil {
		if err := json.Unmarshal(c.rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %q: %v", c.rec.Body.Bytes(), err)
		}
	}
	return c.rec.Code
}

// heldBody is a request body whose read blocks until release is closed: the
// request is at the server (in_flight counts it) and cannot reach the queue.
type heldBody struct {
	r       io.Reader
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (h *heldBody) Read(p []byte) (int, error) {
	h.once.Do(func() { close(h.entered) })
	<-h.release
	return h.r.Read(p)
}

// hold posts body behind a heldBody and returns once the request is inside
// handle.
func hold(s *Server, path string, body []byte) (*call, *heldBody) {
	h := &heldBody{r: bytes.NewReader(body), entered: make(chan struct{}), release: make(chan struct{})}
	c := post(s, path, h)
	<-h.entered
	return c, h
}

// waitParked waits until n requests are parked.
func waitParked(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d parked requests", n), func() bool { return s.st.parked.Load() == n })
}

// checkIdle asserts the gauges are back at rest.
func checkIdle(t *testing.T, s *Server) {
	t.Helper()
	// A request's deferred bookkeeping runs after its response is written.
	waitFor(t, "in_flight to drop to 0", func() bool { return s.st.inFlight.Load() == 0 })
	if got := s.st.parked.Load(); got != 0 {
		t.Errorf("parked = %d at rest, want 0", got)
	}
}

func TestLoneRequestDoesNotWaitOutTheWindow(t *testing.T) {
	s := startSettleServer(t, Config{})
	start := time.Now()
	var resp SolveResponse
	if st := post(s, "/v1/solve", bytes.NewReader(solveBody(t, settleGraph(t, 0)))).wait(t, &resp); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("a lone request took %v with BatchWait %v: it slept on a window nobody could join", took, settleWait)
	}
	if resp.BatchUsers != 1 {
		t.Errorf("batch_users = %d, want 1", resp.BatchUsers)
	}
	if b := s.Stats().Batch; b.Rounds != 1 || b.EarlyCloses != 1 {
		t.Errorf("rounds %d early_closes %d, want 1 and 1", b.Rounds, b.EarlyCloses)
	}
	checkIdle(t, s)
}

func TestRoundWaitsForARequestTheServerHolds(t *testing.T) {
	s := startSettleServer(t, Config{})
	second, gate := hold(s, "/v1/solve", solveBody(t, settleGraph(t, 1)))
	first := post(s, "/v1/solve", bytes.NewReader(solveBody(t, settleGraph(t, 0))))
	waitParked(t, s, 1) // first is queued; its round is open on second
	if got := s.Stats().Batch.Rounds; got != 0 {
		t.Fatalf("%d rounds dispatched while a held request could still join", got)
	}
	close(gate.release)
	var a, b SolveResponse
	if sa, sb := first.wait(t, &a), second.wait(t, &b); sa != http.StatusOK || sb != http.StatusOK {
		t.Fatalf("statuses %d / %d", sa, sb)
	}
	for name, r := range map[string]SolveResponse{"first": a, "second": b} {
		if r.BatchUsers != 2 || r.ActiveUsers != 2 {
			t.Errorf("%s: batch_users %d active_users %d, want 2 and 2", name, r.BatchUsers, r.ActiveUsers)
		}
	}
	if bs := s.Stats().Batch; bs.Rounds != 1 || bs.EarlyCloses != 1 || bs.FusedRounds != 1 {
		t.Errorf("rounds %d early_closes %d fused_rounds %d, want 1 1 1", bs.Rounds, bs.EarlyCloses, bs.FusedRounds)
	}
	checkIdle(t, s)
}

func TestTwinJoinsAnOpenRoundAsAFollower(t *testing.T) {
	s := startSettleServer(t, Config{})
	// The held request is the leader's identical twin: once read it attaches
	// to the leader's cell instead of queueing, and its parking is what
	// completes the round.
	body := solveBody(t, settleGraph(t, 0))
	twin, gate := hold(s, "/v1/solve", body)
	leader := post(s, "/v1/solve", bytes.NewReader(body))
	waitParked(t, s, 1)
	close(gate.release)

	var a, b SolveResponse
	if sa, sb := leader.wait(t, &a), twin.wait(t, &b); sa != http.StatusOK || sb != http.StatusOK {
		t.Fatalf("statuses %d / %d", sa, sb)
	}
	if a.Deduped || !b.Deduped {
		t.Errorf("deduped = %v / %v, want false / true", a.Deduped, b.Deduped)
	}
	for name, r := range map[string]SolveResponse{"leader": a, "twin": b} {
		if r.BatchUsers != 2 || r.ActiveUsers != 2 {
			t.Errorf("%s: batch_users %d active_users %d, want 2 and 2", name, r.BatchUsers, r.ActiveUsers)
		}
	}
	st := s.Stats()
	if st.Batch.Rounds != 1 || st.Batch.Users != 2 || st.Batch.EarlyCloses != 1 || st.Cache.Misses != 1 {
		t.Errorf("rounds %d users %d early_closes %d misses %d, want 1 2 1 1 (one solve, two users)",
			st.Batch.Rounds, st.Batch.Users, st.Batch.EarlyCloses, st.Cache.Misses)
	}
	checkIdle(t, s)
}

// TestLeavingReleasesAnOpenRound: the request a round waits for may never
// join it — it is answered from the cache, or it is garbage. Its leaving
// must close the round then, not the window two seconds later.
func TestLeavingReleasesAnOpenRound(t *testing.T) {
	warm := solveBody(t, settleGraph(t, 1))
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"cache hit", warm, http.StatusOK},
		{"bad request", []byte("not json"), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := startSettleServer(t, Config{})
			if st := post(s, "/v1/solve", bytes.NewReader(warm)).wait(t, nil); st != http.StatusOK {
				t.Fatalf("prime: status %d", st)
			}
			leaver, gate := hold(s, "/v1/solve", tc.body)
			miss := post(s, "/v1/solve", bytes.NewReader(solveBody(t, settleGraph(t, 0))))
			waitParked(t, s, 1)
			released := time.Now()
			close(gate.release)

			var m SolveResponse
			if st := miss.wait(t, &m); st != http.StatusOK || m.Cached || m.BatchUsers != 1 {
				t.Fatalf("miss: status %d cached %v batch_users %d, want 200 false 1", st, m.Cached, m.BatchUsers)
			}
			if took := time.Since(released); took > 500*time.Millisecond {
				t.Errorf("the round stayed open %v after the request it waited for had left", took)
			}
			if st := leaver.wait(t, nil); st != tc.status {
				t.Errorf("leaver: status %d, want %d", st, tc.status)
			}
			if bs := s.Stats().Batch; bs.Rounds != 2 || bs.EarlyCloses != 2 {
				t.Errorf("rounds %d early_closes %d, want 2 and 2", bs.Rounds, bs.EarlyCloses)
			}
			checkIdle(t, s)
		})
	}
}

func TestInlineMutateSolveDoesNotHoldRoundsOpen(t *testing.T) {
	eng := newGateEngine()
	s := startSettleServer(t, Config{Engine: eng})
	base := chainGraph(t, 60)
	if st := post(s, "/v1/solve", bytes.NewReader(solveBody(t, base))).wait(t, nil); st != http.StatusOK {
		t.Fatalf("prime: status %d", st)
	}
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 10, V: 11, Weight: 77}}}
	eng.hold.Store(true)
	mutate := post(s, "/v1/mutate", bytes.NewReader(mutateBody(t, fingerprintOf(t, base), d)))
	awaitParked(t, eng.entered, mutate.done) // the mutate leader is inside its delta solve
	eng.hold.Store(false)

	var resp SolveResponse
	if st := post(s, "/v1/solve", bytes.NewReader(solveBody(t, settleGraph(t, 0)))).wait(t, &resp); st != http.StatusOK {
		t.Fatalf("solve beside a blocked mutate: status %d", st)
	}
	select {
	case <-mutate.done:
		t.Fatal("the mutate finished early; the test proved nothing")
	default:
	}
	// Three rounds: the prime, the mutate's inline round of one (counted as it
	// starts) and the solve, which the batcher closed early as the prime.
	if bs := s.Stats().Batch; resp.BatchUsers != 1 || bs.Rounds != 3 || bs.EarlyCloses != 2 {
		t.Errorf("batch_users %d rounds %d early_closes %d, want 1 3 2", resp.BatchUsers, bs.Rounds, bs.EarlyCloses)
	}
	close(eng.release)
	if st := mutate.wait(t, nil); st != http.StatusOK {
		t.Fatalf("mutate: status %d", st)
	}
	checkIdle(t, s)
}

func TestDrainDuringAnOpenRoundLosesNothing(t *testing.T) {
	jr := newFakeJournal()
	s := startSettleServer(t, Config{Journal: jr})
	late, gate := hold(s, "/v1/solve", solveBody(t, settleGraph(t, 1)))
	accepted := post(s, "/v1/solve", bytes.NewReader(solveBody(t, settleGraph(t, 0))))
	waitParked(t, s, 1)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, "drain to begin", s.draining.Load)
	close(gate.release) // decodes into a draining server: 503, and the round closes on its way out

	var resp SolveResponse
	if st := accepted.wait(t, &resp); st != http.StatusOK || resp.BatchUsers != 1 {
		t.Errorf("accepted request: status %d batch_users %d, want 200 and 1", st, resp.BatchUsers)
	}
	if st := late.wait(t, nil); st != http.StatusServiceUnavailable {
		t.Errorf("request admitted after drain began: status %d, want 503", st)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if appends, applied := jr.counts(); appends != 1 || applied != 1 {
		t.Errorf("journal appends/applied = %d/%d, want 1/1", appends, applied)
	}
	if bs := s.Stats().Batch; bs.Rounds != 1 || bs.EarlyCloses != 1 || bs.QueueDepth != 0 {
		t.Errorf("rounds %d early_closes %d queue_depth %d, want 1 1 0", bs.Rounds, bs.EarlyCloses, bs.QueueDepth)
	}
	checkIdle(t, s)
	checkBooks(t, s)
}

// TestSettleHammer mixes every way a request can stop being able to join a
// round — hit, miss, follower, 400 — from 8 goroutines (run it under
// -race), with the default window. Afterwards the books balance and both
// gauges are at rest: a leaked park would wedge settled at true, a leaked
// in_flight at false.
func TestSettleHammer(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	warm := solveBody(t, settleGraph(t, 0))
	if st := post(s, "/v1/solve", bytes.NewReader(warm)).wait(t, nil); st != http.StatusOK {
		t.Fatalf("prime: status %d", st)
	}

	// Every body is built here: the helpers fail the test, which only the
	// test's own goroutine may do.
	const workers, turns = 8, 40
	bodies := make([][][]byte, workers)
	for w := range bodies {
		bodies[w] = make([][]byte, turns)
	}
	for i := 0; i < turns; i++ {
		twin := solveBody(t, settleGraph(t, 1_000+i)) // every worker on a twin turn i posts this
		for w := 0; w < workers; w++ {
			switch (i + w) % 4 {
			case 0:
				bodies[w][i] = warm
			case 1:
				bodies[w][i] = solveBody(t, settleGraph(t, 10_000+w*turns+i))
			case 2:
				bodies[w][i] = twin
			case 3:
				bodies[w][i] = []byte(`{"graph":`)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, body := range bodies[w] {
				want := http.StatusOK
				if (i+w)%4 == 3 {
					want = http.StatusBadRequest
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
				if rec.Code != want {
					t.Errorf("worker %d request %d: status %d, want %d", w, i, rec.Code, want)
				}
			}
		}(w)
	}
	wg.Wait()

	checkIdle(t, s)
	checkBooks(t, s)
	st := s.Stats()
	if want := uint64(1 + workers*turns); st.Requests != want {
		t.Errorf("requests = %d, want %d", st.Requests, want)
	}
	if st.Batch.EarlyCloses == 0 || st.Batch.EarlyCloses > st.Batch.Rounds {
		t.Errorf("early_closes %d of %d rounds", st.Batch.EarlyCloses, st.Batch.Rounds)
	}
}
