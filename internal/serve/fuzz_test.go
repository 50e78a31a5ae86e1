package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// graphJSONSeeds reads internal/graph's hand-written graph documents (a
// JSON array of strings) — the corpus FuzzGraphJSONMatchesStdlib starts from.
func graphJSONSeeds(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile("../graph/testdata/graph_json_seeds.json")
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	if err := json.Unmarshal(data, &seeds); err != nil {
		t.Fatal(err)
	}
	return seeds
}

// FuzzDecodeSolveRequest asserts the request decoder never panics and
// never accepts a request that violates its limits, no matter how hostile
// the body. Run longer with: go test -fuzz=FuzzDecodeSolveRequest ./internal/serve
func FuzzDecodeSolveRequest(f *testing.F) {
	f.Add(goodBody)
	f.Add("")
	f.Add("null")
	f.Add(`{"graph":null}`)
	f.Add(`{"graph":{"nodes":[{"id":0,"weight":1e308}],"edges":[]}}`)
	f.Add(`{"graph":{"nodes":[{"id":-1,"weight":1}],"edges":[]}}`)
	f.Add(`{"graph":{"nodes":[{"id":0,"weight":1},{"id":0,"weight":2}],"edges":[]}}`)
	f.Add(`{"graph":{"nodes":[{"id":0,"weight":1}],"edges":[{"u":0,"v":99,"weight":1}]}}`)
	f.Add(goodBody + goodBody)
	f.Add(`{"graph":{"nodes":[{"id":0,"weight":1}],"edges":[]},"bandwidth":-0.0001}`)
	f.Add(strings.Repeat("[", 1000))
	// The graph member is where the one-pass scanner and its encoding/json
	// fallback meet: every document that corpus holds, as a request.
	for _, g := range graphJSONSeeds(f) {
		f.Add(`{"graph":` + g + `}`)
	}

	limits := DecodeLimits{MaxNodes: 64, MaxEdges: 128}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeSolveRequest(strings.NewReader(body), limits)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error outside the ErrBadRequest family: %v", err)
			}
			if req != nil {
				t.Fatal("non-nil request alongside an error")
			}
			return
		}
		if req.Graph == nil || req.Graph.NumNodes() == 0 {
			t.Fatal("accepted request without a graph")
		}
		if req.Graph.NumNodes() > limits.MaxNodes || req.Graph.NumEdges() > limits.MaxEdges {
			t.Fatalf("accepted over-limit graph: %d nodes, %d edges",
				req.Graph.NumNodes(), req.Graph.NumEdges())
		}
		if req.FixedLocalWork < 0 || req.DeviceCompute < 0 || req.Bandwidth < 0 || req.PowerTransmit < 0 {
			t.Fatalf("accepted negative override: %+v", req)
		}
		if p := req.Params; p != nil &&
			(p.ServerCapacity < 0 || p.DeviceCompute < 0 || p.PowerCompute < 0 ||
				p.PowerTransmit < 0 || p.Bandwidth < 0) {
			t.Fatalf("accepted negative params override: %+v", p)
		}
		// An accepted request must be keyable — the serving path depends on
		// it — and its record must hash to its Graph's fingerprint.
		want, err := req.Graph.Fingerprint()
		if err != nil {
			t.Fatalf("accepted request not keyable: %v", err)
		}
		if fp, err := FingerprintSolveBody([]byte(body), limits); err != nil || fp != want {
			t.Fatalf("record fingerprint %s (%v), the Graph's %s", fp, err, want)
		}
	})
}

// sameOverrides reports bit-equality of two decoded override sets, the
// optional params object included.
func sameOverrides(a, b UserOverrides) bool {
	if (a.Params == nil) != (b.Params == nil) {
		return false
	}
	var pa, pb mec.Params
	if a.Params != nil {
		pa, pb = mec.Params(*a.Params), mec.Params(*b.Params)
	}
	return floatBlock(pa, a) == floatBlock(pb, b)
}

// oracleSolve is a /v1/solve body as encoding/json alone reads it: the
// oracle the server's decode (the one-pass scan, the decodeStrict fallback,
// the record written from either) is held to. Its graph member is decoded
// into lists by json.Unmarshal and built into a Graph by AddNode in input
// order and AddEdge in stable endpoint order, with the error texts the
// server must give.
type oracleSolve struct {
	Graph *oracleGraph `json:"graph"`
	UserOverrides
}

type oracleGraph struct{ g *graph.Graph }

// jsonGraph and jsonNode are graph's wire types, down to their names, which
// encoding/json's type errors quote (with the package: see UnmarshalJSON).
type jsonGraph struct {
	Nodes []jsonNode   `json:"nodes"`
	Edges []graph.Edge `json:"edges"`
}

type jsonNode struct {
	ID     graph.NodeID `json:"id"`
	Weight float64      `json:"weight"`
}

func (o *oracleGraph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		// The one difference a type error can show: the wire types'
		// package, serve here and graph in the decode under test.
		return fmt.Errorf("decode graph json: %s", strings.ReplaceAll(err.Error(), "serve.json", "graph.json"))
	}
	g := graph.New(len(jg.Nodes))
	for _, n := range jg.Nodes {
		if err := g.AddNode(n.ID, n.Weight); err != nil {
			return fmt.Errorf("decode graph json: %w", err)
		}
	}
	slices.SortStableFunc(jg.Edges, func(a, b graph.Edge) int {
		return cmp.Or(cmp.Compare(min(a.U, a.V), min(b.U, b.V)), cmp.Compare(max(a.U, a.V), max(b.U, b.V)))
	})
	for _, e := range jg.Edges {
		if err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
			return fmt.Errorf("decode graph json: %w", err)
		}
	}
	o.g = g
	return nil
}

// check is decodedSolve.check over the oracle's Graph.
func (req *oracleSolve) check(limits DecodeLimits) error {
	if req.Graph == nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, ErrNoGraph)
	}
	if err := limits.check(req.Graph.g.NumNodes(), req.Graph.g.NumEdges()); err != nil {
		return err
	}
	return req.validate()
}

// sameRecord reports that both requests carry no graph, or that the decoded
// record is the oracle Graph's AppendBinary, byte for byte.
func sameRecord(got *graphRecord, want *oracleGraph) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return bytes.Equal((*got)[acceptedGraphOffset:], want.g.AppendBinary(nil))
}

// checkSolveScanMatchesStdlib is the server's whole decode contract on one
// body, held to the encoding/json oracle: if the scan accepts, the oracle
// accepts too and the scanned record is its Graph's; whether or not it does,
// decodeSolve answers as the oracle and the checks would, with the same
// record, and DecodeSolveBody with an equal Graph.
func checkSolveScanMatchesStdlib(t *testing.T, body []byte, limits DecodeLimits) (scanned bool) {
	t.Helper()
	// Named as the wire type is, which encoding/json's type errors quote.
	type SolveRequest oracleSolve
	var wire SolveRequest
	var got decodedSolve
	wantErr := decodeStrict(body, &wire)
	want := oracleSolve(wire)
	if scanned = got.scan(body); scanned {
		if wantErr != nil {
			t.Fatalf("scan accepted %q, the oracle says %v", body, wantErr)
		}
		if !sameRecord(got.Graph, want.Graph) || !sameOverrides(got.UserOverrides, want.UserOverrides) {
			t.Fatalf("scan and the oracle decode %q differently:\n%+v\n%+v", body, got, want)
		}
	}
	if wantErr == nil {
		wantErr = want.check(limits)
	}
	req, err := decodeSolve(body, limits)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("decodeSolve(%q) = %v, the oracle %v", body, err, wantErr)
	}
	if err == nil && (!sameRecord(req.Graph, want.Graph) || !sameOverrides(req.UserOverrides, want.UserOverrides)) {
		t.Fatalf("decodeSolve(%q) = %+v, the oracle %+v", body, req, want)
	}
	dec, err := DecodeSolveBody(body, limits)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeSolveBody(%q) = %v, the oracle %v", body, err, wantErr)
	}
	if err == nil && !dec.Graph.Equal(want.Graph.g) {
		t.Fatalf("DecodeSolveBody(%q) = %v, the oracle %v", body, dec.Graph, want.Graph.g)
	}
	return scanned
}

// checkMutateScanMatchesStdlib is checkSolveScanMatchesStdlib for /v1/mutate.
func checkMutateScanMatchesStdlib(t *testing.T, body []byte, limits DecodeLimits) (scanned bool) {
	t.Helper()
	same := func(a, b *MutateRequest) bool {
		return a.Base == b.Base && reflect.DeepEqual(a.Delta, b.Delta) &&
			fmt.Sprint(a.Delta) == fmt.Sprint(b.Delta) && // -0 is not 0
			sameOverrides(a.UserOverrides, b.UserOverrides)
	}
	var want, got MutateRequest
	wantErr := decodeStrict(body, &want)
	if scanned = got.scan(body); scanned {
		if wantErr != nil {
			t.Fatalf("scan accepted %q, decodeStrict says %v", body, wantErr)
		}
		if !same(&got, &want) {
			t.Fatalf("scan and decodeStrict decode %q differently:\n%+v\n%+v", body, got, want)
		}
	}
	if wantErr == nil {
		wantErr = validateMutate(&want, limits)
	}
	req, err := DecodeMutateBody(body, limits)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeMutateBody(%q) = %v, decodeStrict path %v", body, err, wantErr)
	}
	if err == nil && !same(req, &want) {
		t.Fatalf("DecodeMutateBody(%q) = %+v, decodeStrict path %+v", body, req, want)
	}
	return scanned
}

// overrideSeeds are request tails (everything after the first member) the
// two scan fuzz targets share: every override key, a nested params object
// with every key of its own, and what the scanner must hand back — duplicate,
// case-folded and unknown keys, nulls, an empty params object, a second
// top-level value, out-of-range and negative numbers.
var overrideSeeds = []string{
	`}`,
	` } `,
	`,"fixed_local_work":10,"device_compute":1.5e3,"bandwidth":300,"power_transmit":0.25}`,
	`,"params":{"server_capacity":9000,"device_compute":2,"power_compute":0.5,"power_transmit":4,"bandwidth":100}}`,
	"\n,\t\"params\" : { \"bandwidth\" : 7 } ,\r\n \"bandwidth\" : -0 }\n",
	`,"bandwidth":1,"bandwidth":2}`,
	`,"Bandwidth":1}`,
	`,"BANDWIDTH":1,"bandwidth":2}`,
	`,"params":{"bandwidth":1,"bandwidth":2}}`,
	`,"params":{"Server_Capacity":1}}`,
	`,"params":{}}`,
	`,"params":null}`,
	`,"params":{"bandwidth":null}}`,
	`,"params":{"bogus":1}}`,
	`,"bandwidth":null}`,
	`,"bandwidth":"3"}`,
	`,"bandwidth":1e999}`,
	`,"bandwidth":-1}`,
	`,"params":{"bandwidth":-1}}`,
	`,"bogus":1}`,
	`,"bandwidth":1}`,
	`}{}`,
	`} {"x":1}`,
	`},`,
	`,}`,
	``,
}

// FuzzSolveRequestMatchesStdlib holds the server's record decode to the
// encoding/json oracle on arbitrary bytes. Run longer with: make fuzz
func FuzzSolveRequestMatchesStdlib(f *testing.F) {
	f.Add([]byte(goodBody))
	f.Add([]byte(""))
	f.Add([]byte("null"))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"graph":null}`))
	f.Add([]byte(`{"Graph":` + goodBody[len(`{"graph":`):]))
	f.Add([]byte(`{"graph":{"nodes":[],"edges":[]},"graph":` + goodBody[len(`{"graph":`):]))
	f.Add([]byte(`{"bandwidth":3,"graph":` + goodBody[len(`{"graph":`):]))
	for _, g := range graphJSONSeeds(f) {
		f.Add([]byte(`{"graph":` + g + `}`))
		f.Add([]byte(" {\n\t\"graph\" :\r" + g + "\n}\n"))
	}
	for _, tail := range overrideSeeds {
		f.Add([]byte(goodBody[:len(goodBody)-1] + tail))
	}
	limits := DecodeLimits{MaxNodes: 64, MaxEdges: 128}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSolveScanMatchesStdlib(t, body, limits)
	})
}

// FuzzMutateRequestMatchesStdlib holds MutateRequest.scan to decodeStrict on
// arbitrary bytes. Run longer with: make fuzz
func FuzzMutateRequestMatchesStdlib(f *testing.F) {
	base := `"base":"` + strings.Repeat("ab", 32) + `"`
	deltas := []string{
		`{"set_node_weights":[{"id":0,"weight":77}]}`,
		`{"remove_edges":[{"u":0,"v":1},{"v":2,"u":1}],"remove_nodes":[3,-4,0],"add_nodes":[{"id":9,"weight":1.5}],` +
			`"set_node_weights":[{"weight":2,"id":9}],"set_edges":[{"u":9,"v":0,"weight":12.25},{"u":0,"v":1,"weight":-0}]}`,
		" {\n\"set_edges\" :\t[ { \"u\" : 1 , \"v\" : 2 , \"weight\" : 1E+2 } ] , \"remove_nodes\" : [ ]\r}",
		`{"remove_edges":[],"remove_nodes":[],"add_nodes":[],"set_node_weights":[],"set_edges":[]}`,
		`{"remove_edges":[{"u":0}],"set_edges":[{"v":3}],"add_nodes":[{"id":1}]}`,
		`{}`,
		`null`,
		`{"remove_nodes":null}`,
		`{"remove_nodes":[null]}`,
		`{"remove_nodes":[1.0]}`,
		`{"remove_nodes":[1e3]}`,
		`{"remove_nodes":["1"]}`,
		`{"remove_nodes":[9223372036854775807,-9223372036854775808,9223372036854775808]}`,
		`{"remove_nodes":[01]}`,
		`{"remove_nodes":[1,]}`,
		`{"remove_nodes":[1],"remove_nodes":[2]}`,
		`{"Remove_Nodes":[1]}`,
		`{"remove_edges":[{"u":0,"v":1,"weight":3}]}`,
		`{"remove_edges":[{"u":0,"u":1,"v":1}]}`,
		`{"remove_edges":[{}]}`,
		`{"set_edges":[{"u":0,"v":1,"weight":1e999}]}`,
		`{"set_edges":[{"u":0,"v":1,"weight":1,"label":"x"}]}`,
		`{"add_nodes":[{"ID":1,"weight":2}]}`,
		`{"bogus":[]}`,
		`{"set_edges":[{"u":0,"v":1,"weight":1}]`,
	}
	for _, d := range deltas {
		f.Add([]byte(`{` + base + `,"delta":` + d + `}`))
		f.Add([]byte(`{"delta":` + d + `,` + base + `}`))
	}
	head := `{` + base + `,"delta":` + deltas[0]
	for _, tail := range overrideSeeds {
		f.Add([]byte(head + tail))
	}
	for _, body := range []string{
		``, `null`, `{}`,
		`{"base":"xyz","delta":` + deltas[0] + `}`,
		`{"base":"ab","delta":` + deltas[0] + `}`,
		`{"base":"é","delta":` + deltas[0] + `}`,
		"{\"base\":\"a\tb\",\"delta\":" + deltas[0] + `}`,
		`{"base":null,"delta":` + deltas[0] + `}`,
		`{"base":7,"delta":` + deltas[0] + `}`,
		`{` + base + `,` + base + `,"delta":` + deltas[0] + `}`,
		`{"Base":"x",` + base + `,"delta":` + deltas[0] + `}`,
		`{` + base + `}`,
		`{` + base + `,"delta":null}`,
		`{` + base + `,"graph":{"nodes":[],"edges":[]}}`,
	} {
		f.Add([]byte(body))
	}
	limits := DecodeLimits{MaxNodes: 64, MaxEdges: 8}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkMutateScanMatchesStdlib(t, body, limits)
	})
}

// FuzzRecoverJournal runs Recover over mutated bytes of a live journal's
// records: a lone round, a round of one holding a mutate of its graph, a
// round of two with a follower's multiplicity, and rounds of one wrapping an
// accepted record and a mutate record. Each input is replayed behind
// the lone round, so a mutate finds its base. Recovery must never panic and
// must finish every cell it opens, so the server still drains. Run longer
// with: make fuzz
func FuzzRecoverJournal(f *testing.F) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jr := newFakeJournal()
	live := newTestServer(f, Config{Journal: jr})
	live.Start(ctx)
	base := chainGraph(f, 24)
	if rec := postRecorded(live, solveBody(f, base), ctx); rec.Code != http.StatusOK {
		f.Fatalf("solve: status %d", rec.Code)
	}
	mutate := httptest.NewRequest(http.MethodPost, "/v1/mutate",
		bytes.NewReader(mutateBody(f, fingerprintOf(f, base), &graph.Delta{SetNodeWeights: []graph.NodeDelta{{ID: 2, Weight: 321}}})))
	rec := httptest.NewRecorder()
	if live.handleMutate(rec, mutate.WithContext(ctx)); rec.Code != http.StatusOK {
		f.Fatalf("mutate: status %d", rec.Code)
	}
	jr.mu.Lock()
	journal := append([][]byte{}, jr.appends...)
	jr.mu.Unlock()
	if len(journal) != 2 {
		f.Fatalf("live journal holds %d records, want 2", len(journal))
	}
	params := defaultTestParams()
	pair, err := appendRound(nil, []*solveTask{
		{rec: oracleRecord(testGraph(f, 1), params, UserOverrides{}), mult: 1},
		{rec: oracleRecord(testGraph(f, 2), params, UserOverrides{Bandwidth: 3}), mult: 2},
	})
	if err != nil {
		f.Fatal(err)
	}
	mutateMember, err := encodeMutate(&MutateRequest{Base: fingerprintOf(f, base), Delta: &graph.Delta{SetEdges: []graph.EdgeDelta{{U: 3, V: 4, Weight: 9}}}}, params)
	if err != nil {
		f.Fatal(err)
	}
	journal = append(journal, pair, roundOf(f, oracleRecord(testGraph(f, 3), params, UserOverrides{})), roundOf(f, mutateMember))
	for _, rec := range journal {
		f.Add(rec)
	}

	f.Fuzz(func(t *testing.T, rec []byte) {
		s := newTestServer(t, Config{MaxBatch: 4, Limits: DecodeLimits{MaxNodes: 64, MaxEdges: 128}})
		if rs := s.Recover(ctx, nil, [][]byte{journal[0], rec}); rs.JournalRecords != 2 {
			t.Fatalf("recovery = %+v, want 2 records", rs)
		}
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := s.Drain(dctx); err != nil {
			t.Fatalf("a replayed cell was never finished: %v", err)
		}
	})
}

// TestScanAcceptsWireBodies: the scan methods must actually take the bodies
// clients send and the harmless variations of them — a decline is correct but
// silently costs the whole speedup.
func TestScanAcceptsWireBodies(t *testing.T) {
	solve := map[string][]byte{"canonical": solveBody(t, testGraph(t, 3))}
	if body, err := json.Marshal(SolveRequest{Graph: testGraph(t, 1)}); err != nil {
		t.Fatal(err)
	} else {
		solve["marshalled struct"] = body
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, solve["canonical"], "", "\t"); err != nil {
		t.Fatal(err)
	}
	solve["indented"] = indented.Bytes()
	for _, tail := range overrideSeeds[:5] {
		solve["tail "+tail] = []byte(goodBody[:len(goodBody)-1] + tail)
	}
	solve["graph last"] = []byte(`{"bandwidth":3,"params":{"bandwidth":9},"graph":` + goodBody[len(`{"graph":`):])
	for name, body := range solve {
		if !checkSolveScanMatchesStdlib(t, body, DecodeLimits{}) {
			t.Errorf("%s: scan declined a canonical solve body", name)
		}
	}

	d := &graph.Delta{
		RemoveEdges:    []graph.EdgePair{{U: 0, V: 1}},
		RemoveNodes:    []graph.NodeID{2},
		AddNodes:       []graph.NodeDelta{{ID: 9, Weight: 4}},
		SetNodeWeights: []graph.NodeDelta{{ID: 3, Weight: 0.125}},
		SetEdges:       []graph.EdgeDelta{{U: 3, V: 9, Weight: 2.5}},
	}
	base := fingerprintOf(t, testGraph(t, 0))
	mutate := map[string][]byte{
		"canonical": mutateBody(t, base, d),
		"one list":  mutateBody(t, base, &graph.Delta{SetEdges: d.SetEdges}),
	}
	if body, err := json.Marshal(MutateRequest{Base: base, Delta: d, UserOverrides: UserOverrides{Bandwidth: 5}}); err != nil {
		t.Fatal(err)
	} else {
		mutate["marshalled struct"] = body
	}
	indented.Reset()
	if err := json.Indent(&indented, mutate["canonical"], "", "  "); err != nil {
		t.Fatal(err)
	}
	mutate["indented"] = indented.Bytes()
	for name, body := range mutate {
		if !checkMutateScanMatchesStdlib(t, body, DecodeLimits{}) {
			t.Errorf("%s: scan declined a canonical mutate body", name)
		}
	}
}
