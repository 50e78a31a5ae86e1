package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"copmecs/internal/graph"
	"copmecs/internal/serve"
)

// postMutate sends one mutate body through the router and returns status
// and decoded response fields.
func postMutate(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return resp.StatusCode, doc
}

func TestRouterMutateRoutingAndAffinity(t *testing.T) {
	// Three real backends: the base graph lives on its ring owner, every
	// mutated fingerprint generally hashes elsewhere, so chained mutates
	// only keep succeeding if the affinity cache routes them back to the
	// backend that holds the mutated graph.
	b1 := startBackend(t, "b1")
	b2 := startBackend(t, "b2")
	b3 := startBackend(t, "b3")
	rt, ts := startRouter(t, Config{
		Backends: []BackendConfig{
			{Name: "b1", URL: b1.URL},
			{Name: "b2", URL: b2.URL},
			{Name: "b3", URL: b3.URL},
		},
		DisableHedge: true,
	})

	body := makeBody(7)
	if st, resp := postSolve(t, ts.URL, body); st != http.StatusOK {
		t.Fatalf("seed solve: status %d: %s", st, resp)
	}

	fp := fingerprintOf(t, body)
	const chain = 5
	for i := 0; i <= chain; i++ {
		mbody := fmt.Sprintf(`{"base":%q,"delta":{"set_node_weights":[{"id":0,"weight":%d}]}}`, fp, 500+i)
		st, doc := postMutate(t, ts.URL, mbody)
		if st != http.StatusOK {
			t.Fatalf("mutate %d: status %d: %v", i, st, doc)
		}
		next, _ := doc["graph"].(string)
		if !graph.ValidFingerprint(next) || next == fp {
			t.Fatalf("mutate %d: bad new fingerprint %q (base %q)", i, next, fp)
		}
		fp = next
	}

	// Router-side validation errors never reach a backend.
	if st, _ := postMutate(t, ts.URL, `{"base":"nope","delta":{}}`); st != http.StatusBadRequest {
		t.Errorf("short base: status %d, want 400", st)
	}
	if st, _ := postMutate(t, ts.URL, `{"base":`); st != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", st)
	}
	resp, err := http.Get(ts.URL + "/v1/mutate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/mutate: status %d, want 405", resp.StatusCode)
	}
	// A well-formed fingerprint no backend holds surfaces the backend's 404.
	unknown := fmt.Sprintf(`{"base":%q,"delta":{}}`, strings.Repeat("0", 64))
	resp, err = http.Post(ts.URL+"/v1/mutate", "application/json", strings.NewReader(unknown))
	if err != nil {
		t.Fatal(err)
	}
	var eresp map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatalf("unknown base: decode reply: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get(serve.OutcomeHeader) != "unknown_base" {
		t.Errorf("unknown base: status %d outcome %q, want 404 unknown_base", resp.StatusCode, resp.Header.Get(serve.OutcomeHeader))
	}

	doc := routerStats(t, ts.URL)
	if doc.Router.Mutates < chain+2 {
		t.Errorf("router mutates = %d, want ≥ %d", doc.Router.Mutates, chain+2)
	}
	// Every chained mutate after the first found its base in the affinity
	// cache (the first one's base came from a solve, which binds nothing).
	if doc.Router.AffinityHits < chain {
		t.Errorf("affinity hits = %d, want ≥ %d", doc.Router.AffinityHits, chain)
	}
	// The fleet section carries the backends' mutate sections: every chained
	// mutate led its round over a staged view, and the unknown base is a 404.
	if inc := doc.Fleet.Incremental; inc.Mutates != chain+2 || inc.DeltaSolves != chain+1 || doc.Fleet.BadRequests != 1 {
		t.Errorf("fleet mutates %d delta_solves %d bad_requests %d, want %d %d 1",
			inc.Mutates, inc.DeltaSolves, doc.Fleet.BadRequests, chain+2, chain+1)
	}
	checkFleetBooks(t, doc.Fleet)
	_ = rt
}
