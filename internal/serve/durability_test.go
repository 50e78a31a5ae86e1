package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
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
	appends, applied := jr.counts()
	if appends != distinct {
		t.Fatalf("appends = %d, want %d (one per distinct accepted leader)", appends, distinct)
	}
	// Every response was delivered, so every journaled record was released
	// (finish runs Applied after the cache fill, before waking waiters).
	if applied != appends {
		t.Fatalf("applied = %d, want %d", applied, appends)
	}
	// Each journaled payload round-trips to a key the cache now holds.
	jr.mu.Lock()
	payloads := append([][]byte{}, jr.appends...)
	jr.mu.Unlock()
	for i, payload := range payloads {
		req, params, err := decodeAccepted(payload, DecodeLimits{})
		if err != nil {
			t.Fatalf("decode journal record %d: %v", i, err)
		}
		key, _, err := requestKey(req, params)
		if err != nil {
			t.Fatalf("requestKey of record %d: %v", i, err)
		}
		if _, ok := s.cache.Get(key); !ok {
			t.Fatalf("record %d's key not in cache after solve", i)
		}
	}
}

func TestAdmitShedReleasesJournalRecord(t *testing.T) {
	// A queue of two and no Start: the first two leaders fill it, the
	// third is shed and must release its journal token.
	jr := newFakeJournal()
	s := newTestServer(t, Config{Journal: jr, QueueDepth: 2})
	params := defaultTestParams()

	admitOne := func(i int) error {
		req := &SolveRequest{Graph: testGraph(t, i)}
		key, _, err := requestKey(req, params)
		if err != nil {
			t.Fatalf("requestKey: %v", err)
		}
		jrec, err := encodeAccepted(req, params)
		if err != nil {
			t.Fatalf("encodeAccepted: %v", err)
		}
		_, _, aerr := s.admit(key, jrec, func(p *pending) bool {
			return s.b.enqueue(&solveTask{p: p})
		})
		return aerr
	}
	for i := 0; i < 2; i++ {
		if err := admitOne(i); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if err := admitOne(2); !errors.Is(err, ErrShed) {
		t.Fatalf("third admit = %v, want ErrShed", err)
	}
	appends, applied := jr.counts()
	if appends != 3 {
		t.Fatalf("appends = %d, want 3 (every leader journaled write-ahead)", appends)
	}
	if applied != 1 {
		t.Fatalf("applied = %d, want 1 (the shed request's record released immediately)", applied)
	}
	// Release the queued leaders so the accepted WaitGroup does not leak
	// (no dispatcher is running in this test).
	for i := 0; i < 2; i++ {
		task, ok := s.b.tryPop()
		if !ok {
			t.Fatalf("queued task %d missing", i)
		}
		s.finish(task.p, nil, errors.New("test teardown"))
	}
	if _, applied := jr.counts(); applied != 3 {
		t.Fatalf("applied after finish = %d, want 3", applied)
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
	got, gotParams, err := decodeAccepted(payload, DecodeLimits{})
	if err != nil {
		t.Fatalf("decodeAccepted: %v", err)
	}
	if gotParams != params {
		t.Fatalf("params = %+v, want %+v", gotParams, params)
	}
	gotKey, gotFp, err := requestKey(got, gotParams)
	if err != nil {
		t.Fatalf("requestKey of decoded: %v", err)
	}
	if gotKey != wantKey || gotFp != wantFp {
		t.Fatalf("replayed identity (%s, %s) != live identity (%s, %s)", gotKey, gotFp, wantKey, wantFp)
	}
}

func TestDecodeAcceptedRejectsHostileRecords(t *testing.T) {
	params := defaultTestParams()
	good, err := encodeAccepted(&SolveRequest{Graph: testGraph(t, 0)}, params)
	if err != nil {
		t.Fatalf("encodeAccepted: %v", err)
	}
	cases := map[string]struct {
		payload []byte
		limits  DecodeLimits
	}{
		"empty":         {payload: nil},
		"wrong type":    {payload: []byte{recDecision, 0, 0, 0}},
		"truncated":     {payload: good[:20]},
		"graph garbage": {payload: append(append([]byte{}, good[:1+9*8]...), []byte("not a graph")...)},
		"over limits":   {payload: good, limits: DecodeLimits{MaxNodes: 1}},
	}
	for name, tc := range cases {
		if _, _, err := decodeAccepted(tc.payload, tc.limits); err == nil {
			t.Errorf("%s: decodeAccepted accepted it", name)
		}
	}
	// Non-finite floats are rejected before params validation.
	nan := append([]byte{}, good...)
	for i := 1; i <= 8; i++ {
		nan[i] = 0xff
	}
	if _, _, err := decodeAccepted(nan, DecodeLimits{}); err == nil {
		t.Error("NaN params accepted")
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
	c.requests.Add(7)
	c.solved.Add(5)
	c.cacheHits.Add(3)
	c.cacheMisses.Add(2)
	c.bodyHits.Add(1)
	c.deduped.Add(4)
	rec, err := encodeCountersRecord(&c)
	if err != nil {
		t.Fatalf("encodeCountersRecord: %v", err)
	}
	var fresh counters
	if err := restoreCountersRecord(rec, &fresh); err != nil {
		t.Fatalf("restoreCountersRecord: %v", err)
	}
	if fresh.requests.Load() != 7 || fresh.solved.Load() != 5 || fresh.cacheHits.Load() != 3 ||
		fresh.cacheMisses.Load() != 2 || fresh.bodyHits.Load() != 1 || fresh.deduped.Load() != 4 {
		t.Fatal("restored counters do not match")
	}
	if err := restoreCountersRecord([]byte{recCounters, '{'}, &fresh); err == nil {
		t.Fatal("truncated counters record accepted")
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
