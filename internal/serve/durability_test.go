package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"copmecs/internal/core"
	"copmecs/internal/graph"
)

// fakeJournal implements Journal in memory, recording every append and
// applied call so tests can assert the write-ahead accounting balances.
type fakeJournal struct {
	mu        sync.Mutex
	appends   [][]byte
	applied   map[uint64]int
	seg       uint64
	appendErr error
}

func newFakeJournal() *fakeJournal {
	return &fakeJournal{applied: make(map[uint64]int), seg: 1}
}

func (j *fakeJournal) Append(payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.appendErr != nil {
		return 0, j.appendErr
	}
	j.appends = append(j.appends, append([]byte{}, payload...))
	return j.seg, nil
}

func (j *fakeJournal) Applied(seg uint64) {
	j.mu.Lock()
	j.applied[seg]++
	j.mu.Unlock()
}

// counts reports (appends, total applied).
func (j *fakeJournal) counts() (int, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, c := range j.applied {
		n += c
	}
	return len(j.appends), n
}

// postRecorded drives handleSolve in-process with a real recorder so the
// response body can be decoded.
func postRecorded(s *Server, body []byte, ctx context.Context) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Body = io.NopCloser(bytes.NewReader(body))
	s.handleSolve(rec, req.WithContext(ctx))
	return rec
}

func TestJournalAppendAppliedBalance(t *testing.T) {
	jr := newFakeJournal()
	s := newTestServer(t, Config{Journal: jr})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	w := &nopResponseWriter{}
	const distinct = 5
	for i := 0; i < distinct; i++ {
		if st := postDirect(s, solveBody(t, testGraph(t, i)), w, ctx); st != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, st)
		}
	}
	// Repeat bodies are cache hits: the warm path never journals.
	for i := 0; i < distinct; i++ {
		if st := postDirect(s, solveBody(t, testGraph(t, i)), w, ctx); st != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, st)
		}
	}
	// Each solve was alone at the server, so each was its own round: one
	// record per round, every one released once its decisions were cached
	// and before its reply. Drain stops the dispatch loop, so no round is in
	// flight while the journal is read.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	appends, applied := jr.counts()
	if rounds := s.Stats().Batch.Rounds; uint64(appends) != rounds || rounds != distinct {
		t.Fatalf("appends = %d over %d rounds, want one per round and %d rounds", appends, rounds, distinct)
	}
	if applied != appends {
		t.Fatalf("applied = %d, want %d", applied, appends)
	}
	// Each journaled payload is a round record whose members decode to keys
	// the cache now holds.
	jr.mu.Lock()
	payloads := append([][]byte{}, jr.appends...)
	jr.mu.Unlock()
	for i, payload := range payloads {
		if payload[0] != recRound {
			t.Fatalf("record %d has type %d, want a round record", i, payload[0])
		}
		round, err := s.decodeRound(payload)
		if err != nil {
			t.Fatalf("decode journal record %d: %v", i, err)
		}
		for _, task := range round {
			if _, ok := s.cache.Get(task.p.key); !ok || task.mult != 1 {
				t.Fatalf("record %d: cached %v, multiplicity %d; want a cached lone request", i, ok, task.mult)
			}
		}
	}
}

// orderJournal journals for one server and checks, each time a record is
// released, that every cell of the round it holds is still in the
// singleflight table and not yet woken.
type orderJournal struct {
	t        *testing.T
	s        *Server
	mu       sync.Mutex
	appends  [][]byte
	released int
}

func (j *orderJournal) Append(payload []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appends = append(j.appends, append([]byte{}, payload...))
	return uint64(len(j.appends)), nil
}

func (j *orderJournal) Applied(token uint64) {
	j.mu.Lock()
	payload := j.appends[token-1]
	j.released++
	j.mu.Unlock()
	round, err := j.s.decodeRound(payload)
	if err != nil {
		j.t.Errorf("record %d: %v", token, err)
		return
	}
	j.s.flight.mu.Lock()
	defer j.s.flight.mu.Unlock()
	for _, task := range round {
		p, ok := j.s.flight.m[task.p.key]
		if !ok {
			j.t.Errorf("record %d released after its cell %.12s… left the flight table", token, task.p.key)
			continue
		}
		select {
		case <-p.done:
			j.t.Errorf("record %d released after its cell %.12s… woke", token, task.p.key)
		default:
		}
	}
}

// balanced reports (records appended, records released).
func (j *orderJournal) balanced() (int, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.appends), j.released
}

// TestJournalReleasesRoundBeforeWakingIt: a round's record is released after
// its last decision is cached and before any of its cells wakes — for a solve
// round of two, a mutate, a failing mutate and a non-finite decision alike —
// so by the time any reply is read its record is already released.
func TestJournalReleasesRoundBeforeWakingIt(t *testing.T) {
	eng := newGateEngine()
	jr := &orderJournal{t: t}
	s := startSettleServer(t, Config{Journal: jr, Engine: eng})
	jr.s = s
	replied := func(step string, records int) {
		t.Helper()
		if appends, released := jr.balanced(); appends != records || released != appends {
			t.Errorf("%s: %d records appended, %d released at the reply; want %d and all", step, appends, released, records)
		}
	}

	other, gate := hold(s, "/v1/solve", solveBody(t, settleGraph(t, 1)))
	first := post(s, "/v1/solve", bytes.NewReader(solveBody(t, settleGraph(t, 0))))
	waitParked(t, s, 1)
	close(gate.release)
	var a, b SolveResponse
	if sa, sb := first.wait(t, &a), other.wait(t, &b); sa != http.StatusOK || sb != http.StatusOK || a.BatchUsers != 2 {
		t.Fatalf("statuses %d / %d, batch_users %d; want one round of 2", sa, sb, a.BatchUsers)
	}
	replied("a round of two", 1)

	base := chainGraph(t, 60)
	if st := post(s, "/v1/solve", bytes.NewReader(solveBody(t, base))).wait(t, nil); st != http.StatusOK {
		t.Fatalf("base solve: status %d", st)
	}
	replied("the base's solve", 2)
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 10, V: 11, Weight: 77}}}
	if st := post(s, "/v1/mutate", bytes.NewReader(mutateBody(t, fingerprintOf(t, base), d))).wait(t, nil); st != http.StatusOK {
		t.Fatalf("mutate: status %d", st)
	}
	replied("a mutate", 3)
	eng.fail.Store(true)
	d = &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 20, V: 21, Weight: 55}}}
	if st := post(s, "/v1/mutate", bytes.NewReader(mutateBody(t, fingerprintOf(t, base), d))).wait(t, nil); st != http.StatusInternalServerError {
		t.Fatalf("failing mutate: status %d, want 500", st)
	}
	replied("a failing mutate", 4)
	eng.fail.Store(false)

	body := []byte(`{"graph":{"nodes":[{"id":0,"weight":1e308},{"id":1,"weight":1e308},{"id":2,"weight":1e308}],` +
		`"edges":[{"u":0,"v":1,"weight":1},{"u":1,"v":2,"weight":1}]}}`)
	if st := post(s, "/v1/solve", bytes.NewReader(body)).wait(t, nil); st != http.StatusBadRequest {
		t.Fatalf("non-finite decision: status %d, want 400", st)
	}
	replied("a non-finite decision", 5)
}

// TestRecoverReinternsMutateCacheHit: a mutate answered from the cache after
// its applied graph left the intern table re-interns that graph, and a
// chained mutate may then name it as base. A server recovered from a
// snapshot taken before the hit plus the journal tail after it must resolve
// that chain: the hit journals its record, replay re-interns the graph and,
// its key warm, skips the solve.
func TestRecoverReinternsMutateCacheHit(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jr := newFakeJournal()
	s := newTestServer(t, Config{Journal: jr, GraphCacheSize: 2})
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mutate := func(base string, d *graph.Delta) MutateResponse {
		t.Helper()
		var resp MutateResponse
		if st := postJSON(t, ts.URL+"/v1/mutate", mutateBody(t, base, d), &resp); st != http.StatusOK {
			t.Fatalf("mutate: status %d", st)
		}
		return resp
	}

	g0 := chainGraph(t, 40)
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g0), nil); st != http.StatusOK {
		t.Fatalf("solve: status %d", st)
	}
	fp0 := fingerprintOf(t, g0)
	d1 := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 0, Weight: 500}}}
	r1 := mutate(fp0, d1)
	// A second mutate of g0 reads it (so g0 stays) and interns its own
	// applied graph, which evicts r1's from the two-entry table.
	mutate(fp0, &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 1, Weight: 300}}})
	if _, ok := s.graphs.Get(r1.Graph); ok {
		t.Fatal("setup: the first applied graph is still interned")
	}

	var snap [][]byte
	if err := s.WriteSnapshotRecords(func(p []byte) error {
		snap = append(snap, append([]byte{}, p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	jr.mu.Lock()
	mark := len(jr.appends)
	jr.mu.Unlock()

	if hit := mutate(fp0, d1); !hit.Cached || hit.Graph != r1.Graph {
		t.Fatalf("repeat mutate: cached %v graph %s, want a hit on %s", hit.Cached, hit.Graph, r1.Graph)
	}
	d2 := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 0, V: 1, Weight: 99}}}
	r2 := mutate(r1.Graph, d2)
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	jr.mu.Lock()
	tail := append([][]byte{}, jr.appends[mark:]...)
	jr.mu.Unlock()

	s2 := newTestServer(t, Config{GraphCacheSize: 2})
	rs := s2.Recover(ctx, snap, tail)
	if rs.ReplayErrors != 0 || rs.DecodeErrors != 0 {
		t.Fatalf("recovery = %+v, want no replay or decode errors", rs)
	}
	s2.Start(ctx)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var again MutateResponse
	if st := postJSON(t, ts2.URL+"/v1/mutate", mutateBody(t, r1.Graph, d2), &again); st != http.StatusOK {
		t.Fatalf("chained mutate on the recovered server: status %d", st)
	}
	if !again.Cached || again.Graph != r2.Graph {
		t.Fatalf("chained mutate on the recovered server: cached %v graph %s, want the warm key of %s", again.Cached, again.Graph, r2.Graph)
	}
}

// TestJournalHoldsOnlyRoundRecords: every record a live server writes is a
// recRound — solve rounds, chained mutates and a mutate cache hit that
// re-interns its evicted graph alike.
func TestJournalHoldsOnlyRoundRecords(t *testing.T) {
	jr := newFakeJournal()
	s := newTestServer(t, Config{Journal: jr, GraphCacheSize: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mutate := func(base string, d *graph.Delta) MutateResponse {
		t.Helper()
		var resp MutateResponse
		if st := postJSON(t, ts.URL+"/v1/mutate", mutateBody(t, base, d), &resp); st != http.StatusOK {
			t.Fatalf("mutate: status %d", st)
		}
		return resp
	}

	g0 := chainGraph(t, 40)
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g0), nil); st != http.StatusOK {
		t.Fatalf("solve: status %d", st)
	}
	d1 := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 0, Weight: 500}}}
	r1 := mutate(fingerprintOf(t, g0), d1)
	mutate(fingerprintOf(t, g0), &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 1, Weight: 300}}})
	if _, ok := s.graphs.Get(r1.Graph); ok {
		t.Fatal("setup: the first applied graph is still interned")
	}
	if hit := mutate(fingerprintOf(t, g0), d1); !hit.Cached {
		t.Fatal("repeat mutate was not a cache hit")
	}
	mutate(r1.Graph, &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 0, V: 1, Weight: 99}}})
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if len(jr.appends) != 5 {
		t.Fatalf("journal holds %d records, want 5 (solve, three mutates, the re-intern)", len(jr.appends))
	}
	for i, rec := range jr.appends {
		if rec[0] != recRound {
			t.Errorf("record %d has type %d, want a round record", i, rec[0])
		}
	}
}

func TestShedRequestIsNeverJournaled(t *testing.T) {
	// A queue of two and no Start: the first two leaders fill it and the
	// third is shed. Nothing is journaled before a round is dispatched, so
	// the 429 writes no record; dispatching the queue writes one.
	jr := newFakeJournal()
	s := newTestServer(t, Config{Journal: jr, QueueDepth: 2})
	params := defaultTestParams()

	admitOne := func(i int) error {
		g := testGraph(t, i)
		rec := newAcceptedRecord(g, params, UserOverrides{})
		task := &solveTask{rec: rec, user: core.UserInput{Graph: g}, params: params, pkey: paramsDigest(params), fp: recordFingerprint(rec)}
		_, _, err := s.admit(cacheKey(task.fp, params, UserOverrides{}), func(p *pending) bool {
			task.p = p
			return s.b.enqueue(task)
		})
		return err
	}
	for i := 0; i < 2; i++ {
		if err := admitOne(i); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if err := admitOne(2); !errors.Is(err, ErrShed) {
		t.Fatalf("third admit = %v, want ErrShed", err)
	}
	if appends, applied := jr.counts(); appends != 0 || applied != 0 {
		t.Fatalf("appends/applied before dispatch = %d/%d, want 0/0", appends, applied)
	}
	var round []*solveTask
	for task, ok := s.b.tryPop(); ok; task, ok = s.b.tryPop() {
		round = append(round, task)
	}
	s.dispatchRound(context.Background(), round)
	if appends, applied := jr.counts(); appends != 1 || applied != 1 {
		t.Fatalf("appends/applied after one round = %d/%d, want 1/1", appends, applied)
	}
	if n := s.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d decisions, want the 2 accepted", n)
	}
}

// TestJournalReplayMatchesLiveRounds: recovery replays each round the
// batcher closed, so every replayed cache entry answers with the bytes its
// live round published — the same batch_users, active_users and costs. Weak
// devices make every user offload, so a round's size is its k.
func TestJournalReplayMatchesLiveRounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		live func(t *testing.T, s *Server)
	}{
		{"lone solves one after another", func(t *testing.T, s *Server) {
			for n := 24; n <= 26; n++ {
				var r SolveResponse
				if st := post(s, "/v1/solve", bytes.NewReader(solveBody(t, chainGraph(t, n)))).wait(t, &r); st != http.StatusOK || r.BatchUsers != 1 {
					t.Fatalf("chain %d: status %d batch_users %d, want 200 and 1", n, st, r.BatchUsers)
				}
			}
		}},
		{"a round of two", func(t *testing.T, s *Server) {
			other, gate := hold(s, "/v1/solve", solveBody(t, settleGraph(t, 1)))
			first := post(s, "/v1/solve", bytes.NewReader(solveBody(t, settleGraph(t, 0))))
			waitParked(t, s, 1) // first is queued; its round is open on the held request
			close(gate.release)
			var a, b SolveResponse
			if sa, sb := first.wait(t, &a), other.wait(t, &b); sa != http.StatusOK || sb != http.StatusOK || a.BatchUsers != 2 || b.BatchUsers != 2 {
				t.Fatalf("statuses %d / %d, batch_users %d / %d; want one round of 2", sa, sb, a.BatchUsers, b.BatchUsers)
			}
		}},
		{"a leader and the follower it was dispatched with", func(t *testing.T, s *Server) {
			body := solveBody(t, settleGraph(t, 0))
			twin, gate := hold(s, "/v1/solve", body)
			leader := post(s, "/v1/solve", bytes.NewReader(body))
			waitParked(t, s, 1) // the leader is queued; its round is open on the held twin
			close(gate.release)
			var a, b SolveResponse
			if sa, sb := leader.wait(t, &a), twin.wait(t, &b); sa != http.StatusOK || sb != http.StatusOK || !b.Deduped || a.BatchUsers != 2 {
				t.Fatalf("statuses %d / %d, twin deduped %v, batch_users %d; want a multiplicity-2 round", sa, sb, b.Deduped, a.BatchUsers)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jr := newFakeJournal()
			live := startSettleServer(t, Config{Journal: jr})
			tc.live(t, live)
			checkIdle(t, live)

			jr.mu.Lock()
			journal := append([][]byte{}, jr.appends...)
			jr.mu.Unlock()
			replayed := newTestServer(t, Config{Params: live.cfg.Params})
			if rs := replayed.Recover(context.Background(), nil, journal); rs.DecodeErrors != 0 || rs.ReplayErrors != 0 {
				t.Fatalf("recovery = %+v", rs)
			}
			if got, want := replayed.cache.Len(), live.cache.Len(); got != want {
				t.Errorf("replay cached %d decisions, live %d", got, want)
			}
			live.cache.Dump(func(key string, want cachedDecision) bool {
				if got, ok := replayed.cache.Get(key); !ok {
					t.Errorf("live key %.12s… is cold after replay", key)
				} else if !bytes.Equal(got.hit, want.hit) {
					t.Errorf("replayed hit differs from the live one:\n got %s\nwant %s", got.hit, want.hit)
				}
				return true
			})
		})
	}
}

func TestJournalAppendErrorDegradesToServing(t *testing.T) {
	jr := newFakeJournal()
	jr.appendErr = errors.New("disk on fire")
	s := newTestServer(t, Config{Journal: jr})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	w := &nopResponseWriter{}
	if st := postDirect(s, solveBody(t, testGraph(t, 0)), w, ctx); st != http.StatusOK {
		t.Fatalf("solve with failing journal: status %d, want 200", st)
	}
	if got := s.st.journalErrors.Load(); got != 1 {
		t.Fatalf("journalErrors = %d, want 1", got)
	}
	st := s.Stats()
	if st.Durability == nil || st.Durability.AppendErrors != 1 {
		t.Fatalf("stats durability = %+v, want AppendErrors 1", st.Durability)
	}
}

func TestAcceptedRecordRoundTripPreservesKey(t *testing.T) {
	params := defaultTestParams()
	params.Bandwidth *= 2
	req := &SolveRequest{
		Graph:         testGraph(t, 3),
		UserOverrides: UserOverrides{FixedLocalWork: 12.5, DeviceCompute: 3.25, Bandwidth: 9, PowerTransmit: 0.75},
	}
	wantKey, wantFp, err := requestKey(req, params)
	if err != nil {
		t.Fatalf("requestKey: %v", err)
	}
	payload, err := encodeAccepted(req, params)
	if err != nil {
		t.Fatalf("encodeAccepted: %v", err)
	}
	got, err := decodeAccepted(payload, DecodeLimits{})
	if err != nil {
		t.Fatalf("decodeAccepted: %v", err)
	}
	if got.params != params {
		t.Fatalf("params = %+v, want %+v", got.params, params)
	}
	if gotKey, gotFp := got.p.key, got.fp; gotKey != wantKey || gotFp != wantFp {
		t.Fatalf("replayed identity (%s, %s) != live identity (%s, %s)", gotKey, gotFp, wantKey, wantFp)
	}
}

func TestDecodeAcceptedRejectsHostileRecords(t *testing.T) {
	params := defaultTestParams()
	good, err := encodeAccepted(&SolveRequest{Graph: testGraph(t, 0)}, params)
	if err != nil {
		t.Fatalf("encodeAccepted: %v", err)
	}
	// Non-finite floats are rejected before params validation.
	nan := append([]byte{}, good...)
	for i := 1; i <= 8; i++ {
		nan[i] = 0xff
	}
	round := func(mult int, members ...[]byte) []byte {
		var tasks []*solveTask
		for _, m := range members {
			tasks = append(tasks, &solveTask{rec: m, mult: mult})
		}
		rec, err := appendRound(nil, tasks)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	countLie := round(1, good)
	countLie[1] = 2 // two members claimed, one present
	lengthLie := round(1, good)
	lengthLie[1+4+3] = 0xff // the member's length prefix points past the end
	mistyped := append([]byte{recMutate}, good[1:]...)
	unknownType := append([]byte{0x7f}, good[1:]...)
	oneOp := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 0, V: 1, Weight: 1}}}
	mutateOf := func(base string) []byte {
		rec, err := encodeMutate(&MutateRequest{Base: base, Delta: oneOp}, params)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	orphan := mutateOf(strings.Repeat("0", 64))

	cases := map[string]struct {
		payload []byte
		limits  DecodeLimits
	}{
		"empty":                   {payload: nil},
		"wrong type":              {payload: []byte{recDecision, 0, 0, 0}},
		"truncated":               {payload: good[:20]},
		"graph garbage":           {payload: append(append([]byte{}, good[:1+9*8]...), []byte("not a graph")...)},
		"over limits":             {payload: good, limits: DecodeLimits{MaxNodes: 1}},
		"nan params":              {payload: nan},
		"round of no members":     {payload: round(1)},
		"round count past end":    {payload: countLie},
		"round length past end":   {payload: lengthLie},
		"round trailing bytes":    {payload: append(round(1, good), 0)},
		"round member mistyped":   {payload: round(1, mistyped)},
		"round member of no type": {payload: round(1, unknownType)},
		"round multiplicity 0":    {payload: round(0, good)},
		"round member over limit": {payload: round(1, good), limits: DecodeLimits{MaxNodes: 1}},
		"mutate invalid base":     {payload: round(1, mutateOf(strings.Repeat("Z", 64)))},
		"mutate delta truncated":  {payload: round(1, orphan[:len(orphan)-3])},
		"mutate multiplicity 0":   {payload: round(0, orphan)},
	}
	for name, tc := range cases {
		s := newTestServer(t, Config{Limits: tc.limits})
		if _, err := s.decodeRound(tc.payload); err == nil {
			t.Errorf("%s: decodeRound accepted it", name)
		}
		if rs := s.Recover(context.Background(), nil, [][]byte{tc.payload}); rs.DecodeErrors != 1 || rs.ReplaySolved != 0 {
			t.Errorf("%s: recovery = %+v, want one decode error", name, rs)
		}
	}
	// A mutate member that decodes but names a base this server never saw
	// is a replay error, not a decode error.
	if rs := newTestServer(t, Config{}).Recover(context.Background(), nil, [][]byte{round(1, orphan)}); rs.ReplayErrors != 1 || rs.DecodeErrors != 0 {
		t.Errorf("mutate member of an unknown base: recovery = %+v, want one replay error", rs)
	}
	// A multiplicity past MaxBatch is clamped as live dispatch clamps it.
	tasks, err := newTestServer(t, Config{MaxBatch: 4}).decodeRound(round(1000, good))
	if err != nil || len(tasks) != 1 || tasks[0].mult != 4 {
		t.Fatalf("round of multiplicity 1000 under MaxBatch 4: err %v, %d tasks", err, len(tasks))
	}
}

func TestSnapshotRestoreWarmsCaches(t *testing.T) {
	// Serve on A, snapshot, restore into a fresh B: the same bodies must
	// be cache hits on B without a single solve or journal append.
	a := newTestServer(t, Config{Journal: newFakeJournal()})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a.Start(ctx)
	w := &nopResponseWriter{}
	const n = 3
	for i := 0; i < n; i++ {
		if st := postDirect(a, solveBody(t, testGraph(t, i)), w, ctx); st != http.StatusOK {
			t.Fatalf("solve %d on A: status %d", i, st)
		}
	}
	var records [][]byte
	if err := a.WriteSnapshotRecords(func(p []byte) error {
		records = append(records, append([]byte{}, p...))
		return nil
	}); err != nil {
		t.Fatalf("WriteSnapshotRecords: %v", err)
	}

	jrB := newFakeJournal()
	b := newTestServer(t, Config{Journal: jrB})
	rs := b.Recover(ctx, records, nil)
	if rs.SnapshotDecisions != n || rs.SnapshotGraphs != n {
		t.Fatalf("recovery = %+v, want %d decisions and %d graphs", rs, n, n)
	}
	if rs.DecodeErrors != 0 {
		t.Fatalf("DecodeErrors = %d on a clean snapshot", rs.DecodeErrors)
	}
	b.Start(ctx)
	for i := 0; i < n; i++ {
		rec := postRecorded(b, solveBody(t, testGraph(t, i)), ctx)
		if rec.Code != http.StatusOK {
			t.Fatalf("restored solve %d: status %d", i, rec.Code)
		}
		var resp SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if !resp.Cached {
			t.Fatalf("request %d on restored server was not a cache hit", i)
		}
	}
	// The counter snapshot carried A's traffic history across the restore.
	if got := b.Stats().Requests; got < n {
		t.Fatalf("restored Requests = %d, want >= %d (counter snapshot restored)", got, n)
	}
	// B never journaled: every request was warm.
	if appends, _ := jrB.counts(); appends != 0 {
		t.Fatalf("restored server journaled %d records on warm hits", appends)
	}
}

func TestJournalReplaySolvesAndDedups(t *testing.T) {
	params := defaultTestParams()
	var journal [][]byte
	for i := 0; i < 3; i++ {
		rec, err := encodeAccepted(&SolveRequest{Graph: testGraph(t, i)}, params)
		if err != nil {
			t.Fatalf("encodeAccepted: %v", err)
		}
		journal = append(journal, rec)
	}
	// A duplicate of record 0 (replay is idempotent) and one corrupt record.
	journal = append(journal, journal[0], []byte("garbage record"))

	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs := s.Recover(ctx, nil, journal)
	if rs.JournalRecords != 5 {
		t.Fatalf("JournalRecords = %d, want 5", rs.JournalRecords)
	}
	if rs.ReplaySolved != 3 {
		t.Fatalf("ReplaySolved = %d, want 3", rs.ReplaySolved)
	}
	if rs.ReplayWarm != 1 {
		t.Fatalf("ReplayWarm = %d, want 1 (the duplicate)", rs.ReplayWarm)
	}
	if rs.DecodeErrors != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", rs.DecodeErrors)
	}
	if rs.ReplayErrors != 0 {
		t.Fatalf("ReplayErrors = %d, want 0", rs.ReplayErrors)
	}
	// Replayed keys answer warm.
	s.Start(ctx)
	rec := postRecorded(s, solveBody(t, testGraph(t, 1)), ctx)
	if rec.Code != http.StatusOK {
		t.Fatalf("replayed key: status %d", rec.Code)
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !resp.Cached {
		t.Fatal("replayed key was not served from cache")
	}
	// Without Journal/DurabilityStats configured, stats carry no
	// durability section even after a recovery ran.
	if st := s.Stats(); st.Durability != nil {
		t.Fatalf("durability section present on in-memory server: %+v", st.Durability)
	}
	if got := s.recovery.Load(); got == nil || got.ReplaySolved != 3 {
		t.Fatalf("recovery pointer = %+v", got)
	}
}

func TestNonFiniteDecisionIsRejectedAndNeverCached(t *testing.T) {
	// Node weights near the float64 limit overflow the local work to +Inf,
	// which JSON cannot carry: the request must fail as a bad request with
	// a JSON error body, nothing may be cached, and snapshots keep working.
	jr := newFakeJournal()
	s := newTestServer(t, Config{Journal: jr})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	body := []byte(`{"graph":{"nodes":[{"id":0,"weight":1e308},{"id":1,"weight":1e308},{"id":2,"weight":1e308}],` +
		`"edges":[{"u":0,"v":1,"weight":1},{"u":1,"v":2,"weight":1}]}}`)
	for i := 0; i < 2; i++ {
		rec := postRecorded(s, body, ctx)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("request %d: status %d (%d body bytes), want 400", i, rec.Code, rec.Body.Len())
		}
		var resp ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
			t.Fatalf("request %d: body %q is not a JSON error (%v)", i, rec.Body, err)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("cache holds %d decisions, want 0", n)
	}
	if appends, applied := jr.counts(); applied != appends {
		t.Fatalf("applied = %d of %d appends: a failed cell must release its record", applied, appends)
	}
	if err := s.WriteSnapshotRecords(func([]byte) error { return nil }); err != nil {
		t.Fatalf("WriteSnapshotRecords: %v", err)
	}
}

func TestCountersRecordRoundTrip(t *testing.T) {
	var c counters
	c.outcomes[solveEndpoint][outBodyHit].Add(1)
	c.outcomes[solveEndpoint][outHit].Add(2)
	c.outcomes[solveEndpoint][outSolved].Add(3)
	c.outcomes[solveEndpoint][outShed].Add(4)
	c.outcomes[mutateEndpoint][outDelta].Add(5)
	c.outcomes[mutateEndpoint][outError].Add(6)
	c.arrivals[solveEndpoint].Add(11) // one still in flight: it restores in neither
	c.arrivals[mutateEndpoint].Add(11)
	rec, err := encodeCountersRecord(&c)
	if err != nil {
		t.Fatalf("encodeCountersRecord: %v", err)
	}
	var fresh counters
	if err := restoreCountersRecord(rec, &fresh); err != nil {
		t.Fatalf("restoreCountersRecord: %v", err)
	}
	for e := range fresh.outcomes {
		for x := range fresh.outcomes[e] {
			if got, want := fresh.outcomes[e][x].Load(), c.outcomes[e][x].Load(); got != want {
				t.Errorf("%s %s = %d, want %d", endpointNames[e], outcomeNames[x], got, want)
			}
		}
	}
	if fresh.arrivals[solveEndpoint].Load() != 10 || fresh.arrivals[mutateEndpoint].Load() != 11 {
		t.Errorf("arrivals %d/%d, want 10/11 (each endpoint's outcomes summed)",
			fresh.arrivals[solveEndpoint].Load(), fresh.arrivals[mutateEndpoint].Load())
	}
	if err := restoreCountersRecord([]byte{recCounters, '{'}, &fresh); err == nil {
		t.Fatal("truncated counters record accepted")
	}

	// A record in the format written before the outcome array restores its
	// 200s: solved 8 = 3 hits (1 by body digest) + 2 deduped + 3 solved.
	legacy := append([]byte{recCounters},
		`{"requests":9,"solved":8,"cache_hits":3,"cache_misses":4,"body_hits":1,"deduped":2}`...)
	s := newTestServer(t, Config{})
	if rs := s.Recover(context.Background(), [][]byte{legacy}, nil); rs.DecodeErrors != 0 {
		t.Fatalf("legacy counters record: %+v", rs)
	}
	st := s.Stats()
	if st.Requests != 8 || st.Solved != 8 || st.Cache.Hits != 3 || st.Cache.BodyHits != 1 ||
		st.Deduped != 2 || st.Cache.Misses != 3 {
		t.Errorf("legacy restore: requests %d solved %d hits %d body_hits %d deduped %d misses %d, want 8 8 3 1 2 3",
			st.Requests, st.Solved, st.Cache.Hits, st.Cache.BodyHits, st.Deduped, st.Cache.Misses)
	}

	// An outcome record written while the server still had a rate cap: its
	// rate_limited count is not restored, and neither are those arrivals,
	// so each endpoint's arrivals are the sum of its restored outcomes and
	// the books balance. (checkBooks would also hold the latency count to
	// the outcomes; the snapshot does not carry the latency histograms.)
	capped := append([]byte{recCounters}, `{"outcomes":{`+
		`"solve":{"body_hit":1,"solved":3,"rate_limited":5,"shed":2},`+
		`"mutate":{"delta":4,"rate_limited":0}}}`...)
	s = newTestServer(t, Config{})
	if rs := s.Recover(context.Background(), [][]byte{capped}, nil); rs.DecodeErrors != 0 {
		t.Fatalf("rate-capped counters record: %+v", rs)
	}
	st = s.Stats()
	if st.Requests != 1+3+2 || st.Incremental.Mutates != 4 || st.RateLimited != 0 ||
		st.Solved != 1+3+4 || st.Shed != 2 {
		t.Errorf("rate-capped restore: requests %d mutates %d rate_limited %d solved %d shed %d, want 6 4 0 8 2",
			st.Requests, st.Incremental.Mutates, st.RateLimited, st.Solved, st.Shed)
	}
	var answered uint64
	for e := range st.Outcomes {
		for _, n := range st.Outcomes[e] {
			answered += n
		}
	}
	if answered != st.Requests+st.Incremental.Mutates {
		t.Errorf("rate-capped restore: outcomes sum to %d, arrivals %d", answered, st.Requests+st.Incremental.Mutates)
	}
	if got := st.Cache.Hits + st.Cache.Misses + st.Deduped; got != st.Solved {
		t.Errorf("rate-capped restore: hits + misses + deduped = %d, solved %d", got, st.Solved)
	}
}

func TestDurabilityStatsSectionShape(t *testing.T) {
	s := newTestServer(t, Config{
		Journal: newFakeJournal(),
		DurabilityStats: func() DurabilityStats {
			return DurabilityStats{
				JournalSegments:   2,
				JournalRecords:    10,
				JournalBytes:      640,
				LastFsyncAgeMs:    5,
				SnapshotSeq:       3,
				SnapshotsWritten:  1,
				LastSnapshotAgeMs: 900,
			}
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Recover(ctx, nil, nil)

	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	dur, ok := doc["durability"].(map[string]any)
	if !ok {
		t.Fatalf("durability section missing: %v", doc["durability"])
	}
	for _, key := range []string{
		"journal_segments", "journal_records", "journal_bytes", "append_errors",
		"write_errors", "fsync_errors", "last_fsync_age_ms",
		"snapshot_seq", "snapshots_written", "snapshot_errors", "last_snapshot_age_ms",
		"replay",
	} {
		if _, ok := dur[key]; !ok {
			t.Fatalf("durability field %q missing", key)
		}
	}
	if dur["journal_records"].(float64) != 10 || dur["snapshot_seq"].(float64) != 3 {
		t.Fatalf("durability passthrough wrong: %v", dur)
	}
	replay, ok := dur["replay"].(map[string]any)
	if !ok {
		t.Fatalf("replay section missing after Recover: %v", dur["replay"])
	}
	for _, key := range []string{
		"snapshot_graphs", "snapshot_decisions", "journal_records",
		"replay_warm", "replay_solved", "replay_errors", "decode_errors",
	} {
		if _, ok := replay[key]; !ok {
			t.Fatalf("replay field %q missing", key)
		}
	}
}
