package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"copmecs/internal/graph"
)

// mutateBody marshals a POST /v1/mutate body.
func mutateBody(t testing.TB, base string, d *graph.Delta) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"base": base, "delta": d})
	if err != nil {
		t.Fatalf("marshal mutate body: %v", err)
	}
	return body
}

// fingerprintOf returns g's canonical fingerprint.
func fingerprintOf(t testing.TB, g *graph.Graph) string {
	t.Helper()
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

// chainGraph builds an n-node chain large enough that a one-edge delta
// stays under the incremental touched-fraction threshold.
func chainGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g := graph.New(0)
	for v := 0; v < n; v++ {
		if err := g.AddNode(graph.NodeID(v), 20+float64(v%5)*60); err != nil {
			t.Fatalf("AddNode: %v", err)
		}
	}
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(graph.NodeID(v), graph.NodeID(v+1), 5+float64(v%4)*20); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

// postJSON posts body to url and decodes the response into out, returning
// the status code.
func postJSON(t testing.TB, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response from %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestMutateEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := chainGraph(t, 40)
	baseFp := fingerprintOf(t, g)
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g), nil); st != http.StatusOK {
		t.Fatalf("prime solve: status %d", st)
	}

	// Mutate: bump one node weight. The mutated graph must be solved and
	// published under its own fingerprint.
	mutated := g.Clone()
	d := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 0, Weight: 500}}}
	if err := d.Apply(mutated); err != nil {
		t.Fatal(err)
	}
	wantFp := fingerprintOf(t, mutated)

	var mresp MutateResponse
	if st := postJSON(t, ts.URL+"/v1/mutate", mutateBody(t, baseFp, d), &mresp); st != http.StatusOK {
		t.Fatalf("mutate: status %d", st)
	}
	if mresp.Graph != wantFp {
		t.Errorf("mutate response graph = %s, want %s", mresp.Graph, wantFp)
	}
	if mresp.Base != baseFp {
		t.Errorf("mutate response base = %s, want %s", mresp.Base, baseFp)
	}
	if mresp.Cached {
		t.Error("first mutate reported cached")
	}
	// Every graph a round pipelined is a patchable base, so the first
	// mutate against a solve-primed base is already incremental, and its
	// decision is byte for byte a fresh server's /v1/solve of the applied
	// graph.
	if !mresp.Incremental || mresp.ColdFallback {
		t.Errorf("first mutate: incremental=%v cold_fallback=%v (reason=%q), want incremental", mresp.Incremental, mresp.ColdFallback, mresp.FallbackReason)
	}
	fresh := newTestServer(t, Config{})
	fresh.Start(ctx)
	fts := httptest.NewServer(fresh.Handler())
	defer fts.Close()
	var fresp SolveResponse
	if st := postJSON(t, fts.URL+"/v1/solve", solveBody(t, mutated), &fresp); st != http.StatusOK {
		t.Fatalf("fresh solve: status %d", st)
	}
	decision := func(r SolveResponse) string {
		r.Graph, r.Cached, r.Deduped = "", false, false
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := decision(mresp.SolveResponse), decision(fresp); got != want {
		t.Errorf("first mutate decision %s, a fresh server's /v1/solve %s", got, want)
	}

	// A plain solve of the mutated graph is a cache hit with the identical
	// decision — the mutate published under the same key.
	var sresp SolveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, mutated), &sresp); st != http.StatusOK {
		t.Fatalf("solve mutated: status %d", st)
	}
	if !sresp.Cached {
		t.Error("solve of mutated graph missed the cache")
	}
	if len(sresp.Remote) != len(mresp.Remote) {
		t.Fatalf("solve remote %v != mutate remote %v", sresp.Remote, mresp.Remote)
	}
	for i := range sresp.Remote {
		if sresp.Remote[i] != mresp.Remote[i] {
			t.Fatalf("solve remote %v != mutate remote %v", sresp.Remote, mresp.Remote)
		}
	}
	if sresp.BatchObjective != mresp.BatchObjective {
		t.Errorf("objective: solve %v, mutate %v", sresp.BatchObjective, mresp.BatchObjective)
	}

	// Chained mutation against the new fingerprint stays on the delta path.
	d2 := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 0, V: 1, Weight: 99}}}
	var mresp2 MutateResponse
	if st := postJSON(t, ts.URL+"/v1/mutate", mutateBody(t, mresp.Graph, d2), &mresp2); st != http.StatusOK {
		t.Fatalf("chained mutate: status %d", st)
	}
	if !mresp2.Incremental {
		t.Errorf("chained mutate not incremental: reason=%q", mresp2.FallbackReason)
	}

	st := s.Stats()
	if st.Incremental.Mutates != 2 || st.Incremental.DeltaSolves != 2 {
		t.Errorf("incremental stats = %+v, want 2 mutates, 2 delta solves", st.Incremental)
	}
	if st.Incremental.ColdFallbacks != 0 {
		t.Errorf("cold fallbacks = %d, want 0", st.Incremental.ColdFallbacks)
	}
	if st.Incremental.Errors != 0 {
		t.Errorf("mutate errors = %d", st.Incremental.Errors)
	}
}

// TestMutateNegativeZeroEdgeOneFingerprint: a /v1/mutate that sets an edge
// to -0 and a /v1/solve of the same graph spelling that weight -0 name one
// graph, so they answer one fingerprint and the solve hits the mutate's
// cached decision.
func TestMutateNegativeZeroEdgeOneFingerprint(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := chainGraph(t, 24)
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g), nil); st != http.StatusOK {
		t.Fatalf("prime solve: status %d", st)
	}
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 3, V: 4, Weight: math.Copysign(0, -1)}}}
	body := mutateBody(t, fingerprintOf(t, g), d)
	if !bytes.Contains(body, []byte(`"weight":-0`)) {
		t.Fatalf("mutate body %s does not spell the weight -0", body)
	}
	var mresp MutateResponse
	if st := postJSON(t, ts.URL+"/v1/mutate", body, &mresp); st != http.StatusOK {
		t.Fatalf("mutate: status %d", st)
	}

	zeroed := g.Clone()
	if err := zeroed.SetEdge(3, 4, 0); err != nil {
		t.Fatal(err)
	}
	plus := []byte(`{"u":3,"v":4,"weight":0}`)
	solve := solveBody(t, zeroed)
	if bytes.Count(solve, plus) != 1 {
		t.Fatalf("solve body %s does not hold %s once", solve, plus)
	}
	solve = bytes.Replace(solve, plus, []byte(`{"u":3,"v":4,"weight":-0}`), 1)
	var sresp SolveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solve, &sresp); st != http.StatusOK {
		t.Fatalf("solve: status %d", st)
	}
	if sresp.Graph != mresp.Graph {
		t.Errorf("one graph, two fingerprints: /v1/mutate %s, /v1/solve %s", mresp.Graph, sresp.Graph)
	}
	if want := fingerprintOf(t, zeroed); mresp.Graph != want {
		t.Errorf("mutate fingerprint %s, the +0 graph's %s", mresp.Graph, want)
	}
	if !sresp.Cached {
		t.Error("solve of the mutated graph missed the mutate's cached decision")
	}
}

func TestMutateRepeatIsCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 2)
	baseFp := fingerprintOf(t, g)
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g), nil); st != http.StatusOK {
		t.Fatalf("prime solve: status %d", st)
	}
	d := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 1, V: 2, Weight: 77}}}
	body := mutateBody(t, baseFp, d)
	var first, second MutateResponse
	if st := postJSON(t, ts.URL+"/v1/mutate", body, &first); st != http.StatusOK {
		t.Fatalf("mutate: status %d", st)
	}
	if st := postJSON(t, ts.URL+"/v1/mutate", body, &second); st != http.StatusOK {
		t.Fatalf("repeat mutate: status %d", st)
	}
	if !second.Cached {
		t.Error("repeat mutate not served from cache")
	}
	if second.Graph != first.Graph {
		t.Errorf("repeat fingerprint %s != %s", second.Graph, first.Graph)
	}
	if st := s.Stats(); st.Incremental.CacheHits != 1 || st.Incremental.DeltaSolves != 1 {
		t.Errorf("incremental stats = %+v, want 1 cache hit, 1 delta solve", st.Incremental)
	}
}

func TestMutateErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := testGraph(t, 0)
	baseFp := fingerprintOf(t, g)
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g), nil); st != http.StatusOK {
		t.Fatalf("prime solve: status %d", st)
	}

	get, err := http.Get(ts.URL + "/v1/mutate")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/mutate: status %d, want 405", get.StatusCode)
	}

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"base":`, http.StatusBadRequest},
		{"unknown field", `{"base":"` + baseFp + `","delta":{},"bogus":1}`, http.StatusBadRequest},
		{"short fingerprint", `{"base":"abc","delta":{}}`, http.StatusBadRequest},
		{"no delta", `{"base":"` + baseFp + `"}`, http.StatusBadRequest},
		{"unknown base", `{"base":"` + strings.Repeat("0", 64) + `","delta":{}}`, http.StatusNotFound},
		{"missing node", `{"base":"` + baseFp + `","delta":{"remove_nodes":[424242]}}`, http.StatusBadRequest},
		{"negative weight", `{"base":"` + baseFp + `","delta":{"set_node_weights":[{"id":0,"weight":-1}]}}`, http.StatusBadRequest},
		{"negative override", `{"base":"` + baseFp + `","delta":{},"bandwidth":-2}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var eresp ErrorResponse
		if st := postJSON(t, ts.URL+"/v1/mutate", []byte(tc.body), &eresp); st != tc.status {
			t.Errorf("%s: status %d, want %d (error %q)", tc.name, st, tc.status, eresp.Error)
		}
	}
}

func TestMutateRecordRoundTripPreservesIdentity(t *testing.T) {
	params := defaultTestParams()
	params.Bandwidth *= 2
	base := chainGraph(t, 12)
	req := &MutateRequest{
		Base: fingerprintOf(t, base),
		Delta: &graph.Delta{
			SetNodeWeights: []graph.NodeDelta{{ID: 3, Weight: 123}},
			SetEdges:       []graph.EdgeDelta{{U: 5, V: 6, Weight: 42}},
		},
		UserOverrides: UserOverrides{FixedLocalWork: 12.5, DeviceCompute: 3.25, Bandwidth: 9, PowerTransmit: 0.75},
	}
	payload, err := encodeMutate(req, params)
	if err != nil {
		t.Fatalf("encodeMutate: %v", err)
	}
	got, gotParams, err := decodeMutate(payload, DecodeLimits{})
	if err != nil {
		t.Fatalf("decodeMutate: %v", err)
	}
	if gotParams != params {
		t.Fatalf("params = %+v, want %+v", gotParams, params)
	}
	if got.Base != req.Base || got.FixedLocalWork != req.FixedLocalWork ||
		got.DeviceCompute != req.DeviceCompute || got.Bandwidth != req.Bandwidth ||
		got.PowerTransmit != req.PowerTransmit {
		t.Fatalf("decoded request = %+v, want %+v", got, req)
	}
	// The decoded delta reconstructs the exact cache identity of the live
	// mutate — this is what makes journal replay indistinguishable from
	// the original request — and it is the identity a plain solve of the
	// applied graph gets.
	s := newTestServer(t, Config{})
	s.graphs.GetOrPut(req.Base, base.Compile())
	live, liveKey, err := s.resolveMutation(req, params)
	if err != nil {
		t.Fatalf("resolve live: %v", err)
	}
	replay, replayKey, err := s.resolveMutation(got, gotParams)
	if err != nil {
		t.Fatalf("resolve replay: %v", err)
	}
	if replayKey != liveKey || replay.fp != live.fp {
		t.Fatalf("replayed identity (%s, %s) != live identity (%s, %s)", replayKey, replay.fp, liveKey, live.fp)
	}
	applied := base.Clone()
	if err := req.Delta.Apply(applied); err != nil {
		t.Fatal(err)
	}
	wantKey, wantFp, err := oracleKey(&SolveRequest{Graph: applied, UserOverrides: req.UserOverrides}, params)
	if err != nil {
		t.Fatal(err)
	}
	if liveKey != wantKey || live.fp != wantFp {
		t.Fatalf("mutate identity (%s, %s) != solve identity (%s, %s)", liveKey, live.fp, wantKey, wantFp)
	}
}

func TestDecodeMutateRejectsHostileRecords(t *testing.T) {
	params := defaultTestParams()
	oneOp := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 0, V: 1, Weight: 1}}}
	good, err := encodeMutate(&MutateRequest{Base: strings.Repeat("a", 64), Delta: oneOp}, params)
	if err != nil {
		t.Fatalf("encodeMutate: %v", err)
	}
	twoOps, err := encodeMutate(&MutateRequest{Base: strings.Repeat("a", 64), Delta: &graph.Delta{
		SetEdges: []graph.EdgeDelta{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}},
	}}, params)
	if err != nil {
		t.Fatalf("encodeMutate: %v", err)
	}
	badFp, err := encodeMutate(&MutateRequest{Base: strings.Repeat("Z", 64), Delta: oneOp}, params)
	if err != nil {
		t.Fatalf("encodeMutate: %v", err)
	}
	// Fingerprint length prefix pointing past the payload.
	liar := append([]byte{}, good...)
	liar[1+9*8] = 0xff
	liar[1+9*8+1] = 0xff
	// Valid header and fingerprint, garbage where the delta JSON belongs.
	garbage := append(append([]byte{}, good[:1+9*8+4+64]...), []byte("not json")...)
	// Non-finite params.
	nan := append([]byte{}, good...)
	for i := 1; i <= 8; i++ {
		nan[i] = 0xff
	}

	cases := map[string]struct {
		payload []byte
		limits  DecodeLimits
	}{
		"empty":           {payload: nil},
		"wrong type":      {payload: []byte{recDecision, 0, 0, 0}},
		"truncated":       {payload: good[:20]},
		"fp length lie":   {payload: liar},
		"delta garbage":   {payload: garbage},
		"bad fingerprint": {payload: badFp},
		"nan params":      {payload: nan},
		"over ops limit":  {payload: twoOps, limits: DecodeLimits{MaxEdges: 1}},
	}
	for name, tc := range cases {
		if _, _, err := decodeMutate(tc.payload, tc.limits); err == nil {
			t.Errorf("%s: decodeMutate accepted it", name)
		}
	}
}

func TestJournalReplayReconstructsMutatedGraphs(t *testing.T) {
	// A journal tail with a solve, a mutate of that graph, a chained
	// mutate of the mutated graph, and a mutate naming a base this server
	// never saw. Recovery must rebuild both mutated graphs and serve the
	// final one warm; the orphan counts as a replay error, not a crash.
	params := defaultTestParams()
	base := chainGraph(t, 24)
	recSolve, err := encodeAccepted(&SolveRequest{Graph: base}, params)
	if err != nil {
		t.Fatalf("encodeAccepted: %v", err)
	}
	d1 := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 2, Weight: 321}}}
	recMut1, err := encodeMutate(&MutateRequest{Base: fingerprintOf(t, base), Delta: d1}, params)
	if err != nil {
		t.Fatalf("encodeMutate: %v", err)
	}
	mutated := base.Clone()
	if err := d1.Apply(mutated); err != nil {
		t.Fatal(err)
	}
	d2 := &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 7, V: 8, Weight: 63}}}
	recMut2, err := encodeMutate(&MutateRequest{Base: fingerprintOf(t, mutated), Delta: d2}, params)
	if err != nil {
		t.Fatalf("encodeMutate: %v", err)
	}
	orphan, err := encodeMutate(&MutateRequest{Base: strings.Repeat("0", 64), Delta: d1}, params)
	if err != nil {
		t.Fatalf("encodeMutate: %v", err)
	}

	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs := s.Recover(ctx, nil, [][]byte{roundOf(t, recSolve), roundOf(t, recMut1), roundOf(t, recMut2), roundOf(t, orphan)})
	if rs.JournalRecords != 4 {
		t.Fatalf("JournalRecords = %d, want 4", rs.JournalRecords)
	}
	if rs.ReplayMutates != 2 {
		t.Fatalf("ReplayMutates = %d, want 2", rs.ReplayMutates)
	}
	if rs.ReplaySolved != 3 {
		t.Fatalf("ReplaySolved = %d, want 3", rs.ReplaySolved)
	}
	if rs.ReplayErrors != 1 {
		t.Fatalf("ReplayErrors = %d, want 1 (the orphan base)", rs.ReplayErrors)
	}
	if rs.DecodeErrors != 0 {
		t.Fatalf("DecodeErrors = %d, want 0", rs.DecodeErrors)
	}

	// The final chained graph answers from cache without a solve.
	s.Start(ctx)
	final := mutated.Clone()
	if err := d2.Apply(final); err != nil {
		t.Fatal(err)
	}
	rec := postRecorded(s, solveBody(t, final), ctx)
	if rec.Code != http.StatusOK {
		t.Fatalf("replayed chained graph: status %d", rec.Code)
	}
	var resp SolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !resp.Cached {
		t.Fatal("replayed chained mutate was not served from cache")
	}
}

func TestJournalReplayMatchesLiveMutate(t *testing.T) {
	// A mutate answered alone live must replay alone: after Recover, its
	// cached hit is the byte-identical single-user decision the live leader
	// published, not a share of a round regrouped from the journal tail.
	jr := newFakeJournal()
	live := newTestServer(t, Config{Journal: jr})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live.Start(ctx)

	base := chainGraph(t, 24)
	if rec := postRecorded(live, solveBody(t, base), ctx); rec.Code != http.StatusOK {
		t.Fatalf("solve: status %d", rec.Code)
	}
	d := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 2, Weight: 321}}}
	rec := httptest.NewRecorder()
	body := mutateBody(t, fingerprintOf(t, base), d)
	live.handleMutate(rec, httptest.NewRequest(http.MethodPost, "/v1/mutate", bytes.NewReader(body)).WithContext(ctx))
	if rec.Code != http.StatusOK {
		t.Fatalf("mutate: status %d: %s", rec.Code, rec.Body)
	}
	mutated := base.Clone()
	if err := d.Apply(mutated); err != nil {
		t.Fatal(err)
	}
	key, _, err := oracleKey(&SolveRequest{Graph: mutated}, defaultTestParams())
	if err != nil {
		t.Fatalf("requestKey: %v", err)
	}
	want, ok := live.cache.Get(key)
	if !ok {
		t.Fatal("live mutate left no cached decision")
	}

	jr.mu.Lock()
	journal := append([][]byte{}, jr.appends...)
	jr.mu.Unlock()
	if len(journal) != 2 {
		t.Fatalf("journal holds %d records, want 2 (solve, mutate)", len(journal))
	}
	replayed := newTestServer(t, Config{})
	if rs := replayed.Recover(ctx, nil, journal); rs.ReplaySolved != 2 {
		t.Fatalf("recovery = %+v, want 2 records solved", rs)
	}
	got, ok := replayed.cache.Get(key)
	if !ok {
		t.Fatal("replay left the mutate key cold")
	}
	if got.dec.BatchUsers != 1 {
		t.Errorf("replayed mutate batch_users = %d, want 1 (its live round)", got.dec.BatchUsers)
	}
	if !bytes.Equal(got.hit, want.hit) {
		t.Errorf("replayed hit differs from the live one:\n got %s\nwant %s", got.hit, want.hit)
	}
}

// TestMutateNeverJournaledAheadOfItsBase: a graph becomes a /v1/mutate base
// only when its round is dispatched, after that round's record, so a mutate
// naming a graph whose first solve is still queued answers 404 and writes
// nothing; once the round runs, the same mutate is journaled behind it, as a
// round whose one member is its recMutate.
func TestMutateNeverJournaledAheadOfItsBase(t *testing.T) {
	jr := newFakeJournal()
	s := newTestServer(t, Config{Journal: jr})
	base := chainGraph(t, 24)
	solve := post(s, "/v1/solve", bytes.NewReader(solveBody(t, base))) // no dispatch loop yet: it stays queued
	waitFor(t, "the solve to queue", func() bool { return s.b.depth() == 1 })
	body := mutateBody(t, fingerprintOf(t, base), &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 2, Weight: 321}}})
	if st := post(s, "/v1/mutate", bytes.NewReader(body)).wait(t, nil); st != http.StatusNotFound {
		t.Fatalf("mutate of a queued base: status %d, want 404", st)
	}
	if appends, _ := jr.counts(); appends != 0 {
		t.Fatalf("%d records journaled before the base's round was dispatched", appends)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	if st := solve.wait(t, nil); st != http.StatusOK {
		t.Fatalf("solve: status %d", st)
	}
	if st := post(s, "/v1/mutate", bytes.NewReader(body)).wait(t, nil); st != http.StatusOK {
		t.Fatalf("mutate after the round: status %d", st)
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if len(jr.appends) != 2 || jr.appends[0][0] != recRound {
		t.Fatalf("journal holds %d records, want the solve's round then the mutate's", len(jr.appends))
	}
	rec := jr.appends[1]
	if len(rec) < 5 || rec[0] != recRound || binary.LittleEndian.Uint32(rec[1:]) != 1 {
		t.Fatalf("the mutate's record is not a round of one")
	}
	if member, rest, ok := readChunk(rec[5:]); !ok || len(rest) != 0 || len(member) < 5 || member[4] != recMutate {
		t.Fatalf("the mutate's round does not hold one recMutate member")
	}
}

func TestStatsIncrementalSectionShape(t *testing.T) {
	// The incremental section is always present (zeros before any mutate)
	// and carries the documented keys that /v1/stats clients read.
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	inc, ok := doc["incremental"].(map[string]any)
	if !ok {
		t.Fatalf("incremental section missing: %v", doc["incremental"])
	}
	for _, key := range []string{
		"mutates", "cache_hits", "delta_solves", "cold_fallbacks",
		"lanczos_iters_saved", "errors",
	} {
		v, ok := inc[key]
		if !ok {
			t.Fatalf("incremental field %q missing", key)
		}
		if v.(float64) != 0 {
			t.Errorf("incremental field %q = %v before any mutate, want 0", key, v)
		}
	}
}

// TestSolveResponseChainsToMutate pins the handle flow a client actually
// uses: the /v1/solve response carries the graph's fingerprint, and that
// string works verbatim as the base of a follow-up /v1/mutate — no
// client-side fingerprint computation required.
func TestSolveResponseChainsToMutate(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := chainGraph(t, 40)
	var sresp SolveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g), &sresp); st != http.StatusOK {
		t.Fatalf("solve: status %d", st)
	}
	if want := fingerprintOf(t, g); sresp.Graph != want {
		t.Fatalf("solve response graph = %q, want %q", sresp.Graph, want)
	}

	d := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 1, Weight: 333}}}
	var mresp MutateResponse
	if st := postJSON(t, ts.URL+"/v1/mutate", mutateBody(t, sresp.Graph, d), &mresp); st != http.StatusOK {
		t.Fatalf("mutate via solve-returned handle: status %d", st)
	}
	if mresp.Base != sresp.Graph {
		t.Errorf("mutate base = %q, want %q", mresp.Base, sresp.Graph)
	}
	// The cached repeat must carry the fingerprint too (pre-rendered hit
	// bytes are built from the same decision).
	var again SolveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g), &again); st != http.StatusOK {
		t.Fatalf("repeat solve: status %d", st)
	}
	if !again.Cached || again.Graph != sresp.Graph {
		t.Errorf("repeat solve cached=%v graph=%q, want cached=true graph=%q", again.Cached, again.Graph, sresp.Graph)
	}
}

// TestMutateInternRaceSolvesTheInternedInstance: a mutate whose applied
// graph was already interned by an earlier /v1/solve — same content, other
// params — is solved as that interned instance. No incremental pipeline runs
// for it, so the reply carries no delta figures, no clone's pipeline entry is
// left behind, and the decision is still a fresh server's /v1/solve of the
// applied graph under the mutate's params.
func TestMutateInternRaceSolvesTheInternedInstance(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serve := func() (*Server, *httptest.Server) {
		s := newTestServer(t, Config{})
		s.Start(ctx)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	body := func(v map[string]any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	p1 := map[string]any{"server_capacity": 17.5}
	p2 := map[string]any{"bandwidth": 3.25}

	g0 := chainGraph(t, 40)
	d := &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 0, Weight: 500}}}
	g1 := g0.Clone()
	if err := d.Apply(g1); err != nil {
		t.Fatal(err)
	}

	s, ts := serve()
	for _, g := range []*graph.Graph{g0, g1} {
		if st := postJSON(t, ts.URL+"/v1/solve", body(map[string]any{"graph": g, "params": p1}), nil); st != http.StatusOK {
			t.Fatalf("solve under P1: status %d", st)
		}
	}
	before := s.Stats()
	var mresp MutateResponse
	mbody := body(map[string]any{"base": fingerprintOf(t, g0), "delta": d, "params": p2})
	if st := postJSON(t, ts.URL+"/v1/mutate", mbody, &mresp); st != http.StatusOK {
		t.Fatalf("mutate under P2: status %d", st)
	}
	if mresp.Graph != fingerprintOf(t, g1) || mresp.Cached || mresp.Deduped {
		t.Fatalf("mutate reply graph %s cached %v deduped %v, want %s, a fresh solve", mresp.Graph, mresp.Cached, mresp.Deduped, fingerprintOf(t, g1))
	}
	if mresp.Incremental || mresp.ColdFallback || mresp.FallbackReason != "" ||
		mresp.CleanComponents != 0 || mresp.DirtyComponents != 0 || mresp.TouchedEdges != 0 || mresp.LanczosItersSaved != 0 {
		t.Errorf("intern-race mutate reports delta work: %+v", mresp)
	}

	_, fts := serve()
	var fresp SolveResponse
	if st := postJSON(t, fts.URL+"/v1/solve", body(map[string]any{"graph": g1, "params": p2}), &fresp); st != http.StatusOK {
		t.Fatalf("fresh solve under P2: status %d", st)
	}
	decision := func(r SolveResponse) string {
		r.Graph, r.Cached, r.Deduped = "", false, false
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := decision(mresp.SolveResponse), decision(fresp); got != want {
		t.Errorf("intern-race mutate decision %s, a fresh server's /v1/solve %s", got, want)
	}

	after := s.Stats()
	if gc := after.GraphCache; gc.Pipelines != gc.Size {
		t.Errorf("graph_cache pipelines %d, size %d: an orphaned entry is left", gc.Pipelines, gc.Size)
	}
	if after.Incremental.DeltaSolves != before.Incremental.DeltaSolves {
		t.Errorf("delta_solves %d → %d, want unchanged", before.Incremental.DeltaSolves, after.Incremental.DeltaSolves)
	}
}

// TestMutateChainFingerprintsAgree chains mutates down one lineage of a
// 70-node graph — three fingerprint chunks, the last one short — through
// weights, edges, and node removes and adds that shift indices. At every
// step the reply's handle, the patched view's fingerprint (re-hashing only
// the chunks the delta changed once the chain's views carry digests), must
// equal the applied graph's compiled view's, the applied graph's own and
// the fingerprint /v1/solve hashes off the applied graph's record.
func TestMutateChainFingerprintsAgree(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := chainGraph(t, 70)
	var sresp SolveResponse
	if st := postJSON(t, ts.URL+"/v1/solve", solveBody(t, g), &sresp); st != http.StatusOK {
		t.Fatalf("solve: status %d", st)
	}
	head := sresp.Graph
	for i, d := range []*graph.Delta{
		{SetNodeWeights: []graph.NodeDelta{{ID: 5, Weight: 9}}},
		{SetEdges: []graph.EdgeDelta{{U: 40, V: 3, Weight: 2}}},
		{RemoveEdges: []graph.EdgePair{{U: 68, V: 69}}, SetEdges: []graph.EdgeDelta{{U: 0, V: 69, Weight: 1}}},
		{RemoveNodes: []graph.NodeID{40}},
		{AddNodes: []graph.NodeDelta{{ID: -5, Weight: 4}}, SetEdges: []graph.EdgeDelta{{U: -5, V: 0, Weight: 3}}},
		{AddNodes: []graph.NodeDelta{{ID: 1000, Weight: 1}}, SetEdges: []graph.EdgeDelta{{U: 1000, V: 69, Weight: 7}}},
		{SetNodeWeights: []graph.NodeDelta{{ID: 33, Weight: 1}}},
	} {
		var mresp MutateResponse
		if st := postJSON(t, ts.URL+"/v1/mutate", mutateBody(t, head, d), &mresp); st != http.StatusOK {
			t.Fatalf("step %d: mutate status %d", i, st)
		}
		if !mresp.Incremental {
			t.Fatalf("step %d: not incremental (%s)", i, mresp.FallbackReason)
		}
		if err := d.Apply(g); err != nil {
			t.Fatal(err)
		}
		compiled, err := g.Compile().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		applied := fingerprintOf(t, g)
		record, err := recordFingerprint(oracleRecord(g, defaultTestParams(), UserOverrides{}))
		if err != nil {
			t.Fatal(err)
		}
		if mresp.Graph != compiled || compiled != applied || applied != record {
			t.Fatalf("step %d: patched view %s, compiled view %s, applied graph %s, record %s",
				i, mresp.Graph, compiled, applied, record)
		}
		head = mresp.Graph
	}
}
