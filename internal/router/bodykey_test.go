package router

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRespacedBodyMissesIdentity: the identity table is keyed by the raw
// bytes, so a respaced body is decoded (an ident miss) and its fingerprint
// routes it to the backend that already solved the graph.
func TestRespacedBodyMissesIdentity(t *testing.T) {
	a := startBackend(t, "be-a")
	b := startBackend(t, "be-b")
	_, front := startRouter(t, Config{
		Backends:      []BackendConfig{{Name: "be-a", URL: a.URL}, {Name: "be-b", URL: b.URL}},
		DisableHedge:  true,
		ProbeInterval: 50 * time.Millisecond,
	})
	body := makeBody(3)
	respaced := strings.Replace(body, `{"graph":`, `{ "graph" : `, 1)
	for i, c := range []struct {
		body   string
		cached bool
		hits   uint64
		misses uint64
	}{
		{body, false, 0, 1},
		{respaced, true, 0, 2},
		{respaced, true, 1, 2},
		{body, true, 2, 2},
	} {
		status, reply := postSolve(t, front.URL, c.body)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, reply)
		}
		var res struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal([]byte(reply), &res); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		doc := routerStats(t, front.URL)
		if res.Cached != c.cached || doc.Router.IdentHits != c.hits || doc.Router.IdentMisses != c.misses {
			t.Fatalf("request %d: cached %v, ident hits/misses %d/%d; want %v, %d/%d",
				i, res.Cached, doc.Router.IdentHits, doc.Router.IdentMisses, c.cached, c.hits, c.misses)
		}
	}
}
