package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/graph"
)

// gateEngine is the spectral engine behind two switches: while hold is
// set every cut parks (announcing itself on entered) until release is
// closed, and while fail is set every cut errors, a held one once released.
type gateEngine struct {
	hold, fail *atomic.Bool
	entered    chan struct{}
	release    chan struct{}
}

func newGateEngine() gateEngine {
	return gateEngine{
		hold: new(atomic.Bool), fail: new(atomic.Bool),
		entered: make(chan struct{}, 64), // never blocks a cut: far more slots than cuts a test parks
		release: make(chan struct{}),
	}
}

func (e gateEngine) Name() string { return "gate" }

func (e gateEngine) Bisect(ctx context.Context, off, tgt []int32, w []float64, sides []int32) ([]int32, []int32, int, error) {
	if e.hold.Load() {
		e.entered <- struct{}{}
		select {
		case <-e.release:
		case <-ctx.Done():
			return nil, nil, 0, ctx.Err()
		}
	}
	if e.fail.Load() { // read after the hold: a held cut fails if fail was set while it waited
		return nil, nil, 0, errors.New("gate engine: induced failure")
	}
	return core.SpectralEngine{}.Bisect(ctx, off, tgt, w, sides)
}

// mutateFixture is a started server over a gate engine with one primed
// base graph and a mutate body against it.
type mutateFixture struct {
	s       *Server
	url     string
	eng     gateEngine
	jr      *fakeJournal
	mutated *graph.Graph
	body    []byte
}

func newMutateFixture(t *testing.T) *mutateFixture {
	t.Helper()
	f := &mutateFixture{eng: newGateEngine(), jr: newFakeJournal()}
	f.s = newTestServer(t, Config{Engine: f.eng, Journal: f.jr, BatchWait: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	f.s.Start(ctx)
	ts := httptest.NewServer(f.s.Handler())
	t.Cleanup(ts.Close)
	f.url = ts.URL

	base := chainGraph(t, 60)
	if st := postJSON(t, f.url+"/v1/solve", solveBody(t, base), nil); st != http.StatusOK {
		t.Fatalf("prime solve: status %d", st)
	}
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 10, V: 11, Weight: 77}}}
	f.mutated = base.Clone()
	if err := d.Apply(f.mutated); err != nil {
		t.Fatalf("apply delta: %v", err)
	}
	f.body = mutateBody(t, fingerprintOf(t, base), d)
	return f
}

// tryPostJSON is postJSON for goroutines other than the test's own: it
// reports a transport or decode failure as status -1 instead of failing
// the test.
func tryPostJSON(url string, body []byte, out any) int {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if out != nil && json.NewDecoder(resp.Body).Decode(out) != nil {
		return -1
	}
	return resp.StatusCode
}

// waitFor polls cond (a counter the server bumps when the awaited event
// has happened) until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMutateCountsTowardInFlightAndLatency(t *testing.T) {
	f := newMutateFixture(t)
	before := f.s.Stats()
	f.eng.hold.Store(true)
	status := make(chan int, 1)
	go func() { status <- tryPostJSON(f.url+"/v1/mutate", f.body, nil) }()
	<-f.eng.entered // the mutate is parked inside its solve
	if got := f.s.Stats().InFlight; got != 1 {
		t.Errorf("in_flight while a mutate is parked = %d, want 1", got)
	}
	close(f.eng.release)
	if st := <-status; st != http.StatusOK {
		t.Fatalf("mutate: status %d", st)
	}
	after := f.s.Stats()
	if after.Latency.Count != before.Latency.Count+1 || after.InFlight != 0 {
		t.Errorf("latency count %d → %d, in_flight %d; want +1 and 0",
			before.Latency.Count, after.Latency.Count, after.InFlight)
	}
	if after.Requests != before.Requests || after.Incremental.Mutates != before.Incremental.Mutates+1 {
		t.Errorf("requests %d → %d, mutates %d → %d; want unchanged and +1",
			before.Requests, after.Requests, before.Incremental.Mutates, after.Incremental.Mutates)
	}
}

func TestConcurrentIdenticalMutatesRunOnce(t *testing.T) {
	f := newMutateFixture(t)
	before := f.s.Stats()
	f.eng.hold.Store(true)

	var leader, follower MutateResponse
	var solved SolveResponse
	status := make(chan int, 3)
	go func() { status <- tryPostJSON(f.url+"/v1/mutate", f.body, &leader) }()
	<-f.eng.entered // the leader is parked; its cell is registered
	go func() { status <- tryPostJSON(f.url+"/v1/mutate", f.body, &follower) }()
	key := cacheKey(fingerprintOf(t, f.mutated), f.s.cfg.Params, UserOverrides{})
	waitFor(t, "the twin mutate to attach", func() bool { return cellMult(f.s, key) == 2 })
	// A plain solve of the same mutated graph shares the cell too.
	twin := solveBody(t, f.mutated)
	go func() { status <- tryPostJSON(f.url+"/v1/solve", twin, &solved) }()
	waitFor(t, "the solve to attach", func() bool { return cellMult(f.s, key) == 3 })
	close(f.eng.release)
	for i := 0; i < 3; i++ {
		if st := <-status; st != http.StatusOK {
			t.Fatalf("request %d: status %d", i, st)
		}
	}

	if leader.Deduped || !follower.Deduped || !solved.Deduped {
		t.Errorf("deduped = %v / %v / %v, want false / true / true", leader.Deduped, follower.Deduped, solved.Deduped)
	}
	if !leader.Incremental && !leader.ColdFallback {
		t.Errorf("leader reports no pipeline run: %+v", leader)
	}
	if follower.Incremental || follower.ColdFallback {
		t.Errorf("follower claims a pipeline run: %+v", follower)
	}
	want := fingerprintOf(t, f.mutated)
	for name, r := range map[string]SolveResponse{"follower": follower.SolveResponse, "solve": solved} {
		if !slices.Equal(r.Remote, leader.Remote) || r.Cost != leader.Cost || r.BatchUsers != 1 {
			t.Errorf("%s decision differs from the leader's:\n got %+v\nwant %+v", name, r, leader.SolveResponse)
		}
	}
	if leader.Graph != want || follower.Graph != want || solved.Graph != want {
		t.Errorf("graph handles = %q / %q / %q, want %q", leader.Graph, follower.Graph, solved.Graph, want)
	}
	after := f.s.Stats()
	if got := after.Incremental.DeltaSolves - before.Incremental.DeltaSolves; got != 1 {
		t.Errorf("delta_solves grew by %d, want 1", got)
	}
	if appends, applied := f.jr.counts(); appends != 2 || applied != 2 {
		t.Errorf("journal appends/applied = %d/%d, want 2/2 (prime + one mutate leader)", appends, applied)
	}
}

func TestMutateDuringDrainIsRejectedUnjournaled(t *testing.T) {
	f := newMutateFixture(t)
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err := http.Post(f.url+"/v1/mutate", "application/json", bytes.NewReader(f.body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Errorf("mutate while draining = %d, Retry-After %q; want 503, \"1\"", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if appends, _ := f.jr.counts(); appends != 1 {
		t.Errorf("journal appends = %d, want 1 (the prime solve only)", appends)
	}
	if got := f.s.Stats().DrainRejects; got != 1 {
		t.Errorf("drain_rejects = %d, want 1", got)
	}
}

func TestFailedMutateReleasesItsJournalRecord(t *testing.T) {
	f := newMutateFixture(t)
	f.eng.fail.Store(true)
	var eresp ErrorResponse
	if st := postJSON(t, f.url+"/v1/mutate", f.body, &eresp); st != http.StatusInternalServerError {
		t.Fatalf("failing mutate: status %d (%q), want 500", st, eresp.Error)
	}
	// Appended write-ahead, released on failure: a record left unreleased
	// would replay — and fail — at every boot.
	if appends, applied := f.jr.counts(); appends != 2 || applied != 2 {
		t.Errorf("journal appends/applied = %d/%d, want 2/2", appends, applied)
	}
	st := f.s.Stats()
	if st.Incremental.Errors != 1 || st.SolveErrors != 1 || st.Incremental.DeltaSolves != 0 {
		t.Errorf("errors %d solve_errors %d delta_solves %d, want 1 1 0",
			st.Incremental.Errors, st.SolveErrors, st.Incremental.DeltaSolves)
	}
	// The cell is gone: the retry leads again and succeeds.
	f.eng.fail.Store(false)
	if st := postJSON(t, f.url+"/v1/mutate", f.body, nil); st != http.StatusOK {
		t.Fatalf("retry: status %d", st)
	}
}

// TestFailMapsEverySentinel drives handle with every serving error: each
// answers its status, Retry-After hint and outcome header, and bumps exactly
// one outcome — the 500s included — and the flat field it feeds.
func TestFailMapsEverySentinel(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		err        error
		status     int
		retryAfter bool
		outcome    string
		counter    func(Stats) uint64
	}{
		{ErrBadRequest, http.StatusBadRequest, false, "bad_request", func(st Stats) uint64 { return st.BadRequests }},
		{fmt.Errorf("%w: %w: 9 nodes", ErrBadRequest, ErrTooLarge), http.StatusBadRequest, false, "bad_request", func(st Stats) uint64 { return st.BadRequests }},
		{ErrTooLarge, http.StatusBadRequest, false, "bad_request", func(st Stats) uint64 { return st.BadRequests }},
		{ErrNoGraph, http.StatusBadRequest, false, "bad_request", func(st Stats) uint64 { return st.BadRequests }},
		{ErrUnknownBase, http.StatusNotFound, false, "unknown_base", func(st Stats) uint64 { return st.BadRequests }},
		{errMethod, http.StatusMethodNotAllowed, false, "method", nil},
		{ErrShed, http.StatusTooManyRequests, true, "shed", func(st Stats) uint64 { return st.Shed }},
		{ErrDraining, http.StatusServiceUnavailable, true, "draining", func(st Stats) uint64 { return st.DrainRejects }},
		{fmt.Errorf("solve: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, false, "timeout", func(st Stats) uint64 { return st.Timeouts }},
		{errors.New("engine exploded"), http.StatusInternalServerError, false, "error", func(st Stats) uint64 { return st.SolveErrors }},
		{context.Canceled, http.StatusInternalServerError, false, "error", func(st Stats) uint64 { return st.SolveErrors }},
	}
	for _, c := range cases {
		before := s.Stats()
		rec := httptest.NewRecorder()
		s.handle(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader("{}")), solveEndpoint,
			func(context.Context, []byte) (reply, error) { return reply{}, c.err })
		if rec.Code != c.status {
			t.Errorf("fail(%v) = %d, want %d", c.err, rec.Code, c.status)
		}
		if got := rec.Header().Get("Retry-After"); (got == "1") != c.retryAfter {
			t.Errorf("fail(%v): Retry-After %q, want set = %v", c.err, got, c.retryAfter)
		}
		if got := rec.Header().Get(OutcomeHeader); got != c.outcome {
			t.Errorf("fail(%v): %s %q, want %q", c.err, OutcomeHeader, got, c.outcome)
		}
		after := s.Stats()
		if c.counter != nil && c.counter(after) != c.counter(before)+1 {
			t.Errorf("fail(%v) did not bump its counter", c.err)
		}
		var bumped []string
		for e := range after.Outcomes {
			for x := range after.Outcomes[e] {
				if n := after.Outcomes[e][x] - before.Outcomes[e][x]; n != 0 {
					bumped = append(bumped, fmt.Sprintf("%s/%s+%d", endpointNames[e], outcomeNames[x], n))
				}
			}
		}
		if want := "solve/" + c.outcome + "+1"; len(bumped) != 1 || bumped[0] != want {
			t.Errorf("fail(%v) bumped %v, want [%s]", c.err, bumped, want)
		}
	}
	checkBooks(t, s)
}

// TestMutateGraphFieldMatchesSolveFingerprint: a mutate keys its applied
// graph off the view the session built for it, never off the map graph, so
// its graph field is held here to the fingerprint a /v1/solve of the applied
// graph returns, on a reference server that has never seen the mutate, in
// every way a mutate can be answered.
func TestMutateGraphFieldMatchesSolveFingerprint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := newGateEngine()
	s := newTestServer(t, Config{Engine: eng, BatchWait: time.Millisecond})
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ref := newTestServer(t, Config{})
	ref.Start(ctx)
	rts := httptest.NewServer(ref.Handler())
	defer rts.Close()

	check := func(what string, resp MutateResponse, applied *graph.Graph) {
		t.Helper()
		var sresp SolveResponse
		if st := postJSON(t, rts.URL+"/v1/solve", solveBody(t, applied), &sresp); st != http.StatusOK {
			t.Fatalf("%s: reference solve: status %d", what, st)
		}
		if resp.Graph != sresp.Graph || resp.Graph != fingerprintOf(t, applied) {
			t.Errorf("%s: mutate graph = %s, /v1/solve of the applied graph = %s", what, resp.Graph, sresp.Graph)
		}
	}
	mutate := func(url string, base *graph.Graph, d *graph.Delta) (MutateResponse, *graph.Graph) {
		t.Helper()
		applied := base.Clone()
		if err := d.Apply(applied); err != nil {
			t.Fatal(err)
		}
		var resp MutateResponse
		if st := postJSON(t, url+"/v1/mutate", mutateBody(t, fingerprintOf(t, base), d), &resp); st != http.StatusOK {
			t.Fatalf("mutate: status %d", st)
		}
		return resp, applied
	}

	g0 := chainGraph(t, 60)
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g0), nil); st != http.StatusOK {
		t.Fatalf("prime solve: status %d", st)
	}
	// A base /v1/solve pipelined is a patchable base: incremental at once.
	r1, g1 := mutate(ts.URL, g0, &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 0, Weight: 500}}})
	if !r1.Incremental || r1.ColdFallback {
		t.Errorf("first mutate: %+v, want incremental", r1)
	}
	check("incremental off a solved base", r1, g1)

	r2, g2 := mutate(ts.URL, g1, &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 10, V: 11, Weight: 77}}})
	if !r2.Incremental {
		t.Errorf("chained mutate not incremental: %q", r2.FallbackReason)
	}
	check("incremental", r2, g2)

	// A quarter of the edges removed, a node removed and one added: the
	// touched-fraction fallback, over a shifted index space.
	d3 := &graph.Delta{RemoveNodes: []graph.NodeID{59}, AddNodes: []graph.NodeDelta{{ID: 100, Weight: 5}},
		SetEdges: []graph.EdgeDelta{{U: 100, V: 0, Weight: 3}}}
	for v := graph.NodeID(20); v < 35; v++ {
		d3.RemoveEdges = append(d3.RemoveEdges, graph.EdgePair{U: v, V: v + 1})
	}
	r3, g3 := mutate(ts.URL, g2, d3)
	if !r3.ColdFallback || !strings.Contains(r3.FallbackReason, "touched-edge fraction") {
		t.Errorf("wide delta: %+v, want the touched-fraction fallback", r3)
	}
	check("touched-fraction fallback", r3, g3)

	// Incremental again, with nodes added below and between existing ids.
	r4, g4 := mutate(ts.URL, g3, &graph.Delta{RemoveNodes: []graph.NodeID{100},
		AddNodes: []graph.NodeDelta{{ID: -5, Weight: 2}, {ID: 59, Weight: 4}},
		SetEdges: []graph.EdgeDelta{{U: -5, V: 0, Weight: 2}, {U: 59, V: 58, Weight: 1}}})
	if !r4.Incremental {
		t.Errorf("index-shifting mutate not incremental: %q", r4.FallbackReason)
	}
	check("incremental, shifted indices", r4, g4)

	// The base's session state dropped: cold again.
	interned, ok := s.graphs.Get(r4.Graph)
	if !ok || !s.sess.Invalidate(interned) {
		t.Fatal("the chained graph is not interned with session state")
	}
	d5 := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 7, Weight: 9}}}
	r5, g5 := mutate(ts.URL, g4, d5)
	if !r5.ColdFallback {
		t.Errorf("mutate after Invalidate: %+v, want a cold fallback", r5)
	}
	check("state invalidated", r5, g5)

	// A repeat is answered from the cache.
	r6, _ := mutate(ts.URL, g4, d5)
	if !r6.Cached {
		t.Error("repeat mutate not served from cache")
	}
	check("cache hit", r6, g5)

	// A deduped follower: two identical mutates while the leader's cut is
	// held.
	eng.hold.Store(true)
	d7 := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 3, V: 4, Weight: 8}}}
	g7 := g5.Clone()
	if err := d7.Apply(g7); err != nil {
		t.Fatal(err)
	}
	body := mutateBody(t, r5.Graph, d7)
	var leader, follower MutateResponse
	status := make(chan int, 2)
	go func() { status <- tryPostJSON(ts.URL+"/v1/mutate", body, &leader) }()
	<-eng.entered
	go func() { status <- tryPostJSON(ts.URL+"/v1/mutate", body, &follower) }()
	key := cacheKey(fingerprintOf(t, g7), s.cfg.Params, UserOverrides{})
	waitFor(t, "the twin mutate to attach", func() bool { return cellMult(s, key) == 2 })
	eng.hold.Store(false)
	close(eng.release)
	for i := 0; i < 2; i++ {
		if st := <-status; st != http.StatusOK {
			t.Fatalf("held mutate %d: status %d", i, st)
		}
	}
	if !follower.Deduped {
		t.Error("twin mutate was not deduped")
	}
	check("leader", leader, g7)
	check("deduped follower", follower, g7)

	// After Recover a snapshot's graph has no session state either.
	rec, err := encodeGraphRecord(r5.Graph, g5)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Config{})
	if rs := s2.Recover(ctx, [][]byte{rec}, nil); rs.SnapshotGraphs != 1 {
		t.Fatalf("recovery = %+v, want the one graph", rs)
	}
	s2.Start(ctx)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	r8, g8 := mutate(ts2.URL, g5, &graph.Delta{RemoveEdges: []graph.EdgePair{{U: 40, V: 41}}})
	if !r8.ColdFallback {
		t.Errorf("mutate after Recover: %+v, want a cold fallback", r8)
	}
	check("after Recover", r8, g8)
}
