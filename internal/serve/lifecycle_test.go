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
	"sync/atomic"
	"testing"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/graph"
)

// gateEngine is the spectral engine behind two switches: while hold is
// set every cut parks (announcing itself on entered) until release is
// closed, and while fail is set every cut errors.
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
	if e.fail.Load() {
		return nil, nil, 0, errors.New("gate engine: induced failure")
	}
	if e.hold.Load() {
		e.entered <- struct{}{}
		select {
		case <-e.release:
		case <-ctx.Done():
			return nil, nil, 0, ctx.Err()
		}
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
	waitFor(t, "the twin mutate to attach", func() bool { return f.s.Stats().Deduped == before.Deduped+1 })
	// A plain solve of the same mutated graph shares the cell too.
	twin := solveBody(t, f.mutated)
	go func() { status <- tryPostJSON(f.url+"/v1/solve", twin, &solved) }()
	waitFor(t, "the solve to attach", func() bool { return f.s.Stats().Deduped == before.Deduped+2 })
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

func TestFailMapsEverySentinel(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		err        error
		status     int
		retryAfter bool
		counter    func(Stats) uint64
	}{
		{ErrBadRequest, http.StatusBadRequest, false, func(st Stats) uint64 { return st.BadRequests }},
		{fmt.Errorf("%w: %w: 9 nodes", ErrBadRequest, ErrTooLarge), http.StatusBadRequest, false, func(st Stats) uint64 { return st.BadRequests }},
		{ErrTooLarge, http.StatusBadRequest, false, func(st Stats) uint64 { return st.BadRequests }},
		{ErrNoGraph, http.StatusBadRequest, false, func(st Stats) uint64 { return st.BadRequests }},
		{ErrUnknownBase, http.StatusNotFound, false, func(st Stats) uint64 { return st.BadRequests }},
		{ErrShed, http.StatusTooManyRequests, true, func(st Stats) uint64 { return st.Shed }},
		{errRateLimited, http.StatusTooManyRequests, true, func(st Stats) uint64 { return st.RateLimited }},
		{ErrDraining, http.StatusServiceUnavailable, true, func(st Stats) uint64 { return st.DrainRejects }},
		{fmt.Errorf("solve: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, false, func(st Stats) uint64 { return st.Timeouts }},
		{errors.New("engine exploded"), http.StatusInternalServerError, false, nil},
		{context.Canceled, http.StatusInternalServerError, false, nil},
	}
	for _, c := range cases {
		var before uint64
		if c.counter != nil {
			before = c.counter(s.Stats())
		}
		rec := httptest.NewRecorder()
		s.fail(rec, c.err)
		if rec.Code != c.status {
			t.Errorf("fail(%v) = %d, want %d", c.err, rec.Code, c.status)
		}
		if got := rec.Header().Get("Retry-After"); (got == "1") != c.retryAfter {
			t.Errorf("fail(%v): Retry-After %q, want set = %v", c.err, got, c.retryAfter)
		}
		if c.counter != nil && c.counter(s.Stats()) != before+1 {
			t.Errorf("fail(%v) did not bump its counter", c.err)
		}
	}
}
