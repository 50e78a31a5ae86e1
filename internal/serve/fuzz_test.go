package serve

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
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
		// An accepted request must be keyable — the serving path depends on it.
		if _, _, err := requestKey(req, defaultTestParams()); err != nil {
			t.Fatalf("accepted request not keyable: %v", err)
		}
	})
}
