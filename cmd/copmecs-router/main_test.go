package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"copmecs/internal/serve"
)

// syncBuffer serializes writes and reads: the test polls the output while
// run is still writing to it from another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

const testBody = `{"graph":{"nodes":[{"id":0,"weight":50},{"id":1,"weight":120},` +
	`{"id":2,"weight":200},{"id":3,"weight":30}],` +
	`"edges":[{"u":0,"v":1,"weight":40},{"u":1,"v":2,"weight":5},{"u":2,"v":3,"weight":60}]}}`

// startBackend boots one in-process serving backend for the router to front.
func startBackend(t *testing.T, id string) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{ID: id})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// startRouter launches run on an ephemeral port and returns the base URL,
// the stop channel, the output buffer, and run's error channel.
func startRouter(t *testing.T, extraArgs ...string) (string, chan os.Signal, *syncBuffer, chan error) {
	t.Helper()
	stop := make(chan os.Signal, 1)
	out := &syncBuffer{}
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	go func() { done <- run(args, stop, out) }()

	re := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], stop, out, done
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v (output %q)", err, out.String())
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no listening banner: %q", out.String())
	return "", nil, nil, nil
}

func TestRouterServesAndDrains(t *testing.T) {
	a := startBackend(t, "be-a")
	b := startBackend(t, "be-b")
	base, stop, out, done := startRouter(t,
		"-backends", "be-a="+a.URL+",be-b="+b.URL,
		"-probe-interval", "50ms")

	hr, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hr.StatusCode)
	}

	// Two identical solves through the router: fresh, then a backend cache
	// hit — proof the repeat was routed to the same backend.
	var cached []bool
	for i := 0; i < 2; i++ {
		resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(testBody))
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d = %d, want 200", i, resp.StatusCode)
		}
		var body struct {
			Remote []int `json:"remote"`
			Cached bool  `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("solve %d: decode: %v", i, err)
		}
		resp.Body.Close()
		cached = append(cached, body.Cached)
	}
	if cached[0] || !cached[1] {
		t.Fatalf("cached flags = %v, want [false true]", cached)
	}

	sr, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var doc struct {
		Router struct {
			Requests uint64 `json:"requests"`
			Ring     struct {
				Members []string `json:"members"`
			} `json:"ring"`
		} `json:"router"`
		Fleet struct {
			BackendsReporting int    `json:"backends_reporting"`
			Requests          uint64 `json:"requests"`
			CacheHits         uint64 `json:"cache_hits"`
		} `json:"fleet"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	sr.Body.Close()
	if doc.Router.Requests != 2 || len(doc.Router.Ring.Members) != 2 {
		t.Fatalf("router stats = %+v", doc.Router)
	}
	if doc.Fleet.BackendsReporting != 2 || doc.Fleet.Requests != 2 || doc.Fleet.CacheHits != 1 {
		t.Fatalf("fleet stats = %+v", doc.Fleet)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v (output %q)", err, out.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "drained") {
		t.Fatalf("drain line missing: %q", s)
	}
}

// TestRouterDrainClosesUnusedConnections: a connection dialed and never
// written to (a client's spare, a load balancer's pre-dial) must not hold
// the drain. net/http's Shutdown counts such a StateNew connection as idle
// only once it is 5 s old, so without the router closing it the drain took
// ≈ 5 s.
func TestRouterDrainClosesUnusedConnections(t *testing.T) {
	a := startBackend(t, "be-a")
	base, stop, out, done := startRouter(t, "-backends", "be-a="+a.URL)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// A request on a second connection: the server accepts in dial order,
	// so once it is answered the first connection is accepted too, not
	// still in the backlog when Shutdown closes the listener.
	hr, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hr.Body.Close()

	start := time.Now()
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v (output %q)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after SIGTERM")
	}
	if took := time.Since(start); took > 2*time.Second || !strings.Contains(out.String(), "copmecs-router: drained") {
		t.Fatalf("drain took %v (output %q), want a drained line within 2s", took, out.String())
	}
}

func TestRouterBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-zap"}, nil, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0"}, nil, &out); err == nil {
		t.Error("missing -backends accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-backends", "a=notaurl"}, nil, &out); err == nil {
		t.Error("bad backend URL accepted")
	}
}

func TestParseBackends(t *testing.T) {
	members, err := parseBackends("be-a=http://h1:1, be-b=http://h2:2 ,http://h3:3/")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(members) != 3 {
		t.Fatalf("got %d members: %+v", len(members), members)
	}
	if members[0].Name != "be-a" || members[0].URL != "http://h1:1" {
		t.Fatalf("member 0 = %+v", members[0])
	}
	if members[1].Name != "be-b" {
		t.Fatalf("member 1 = %+v", members[1])
	}
	// Bare URLs are named by their address with scheme and slash stripped.
	if members[2].Name != "h3:3" || members[2].URL != "http://h3:3/" {
		t.Fatalf("member 2 = %+v", members[2])
	}
	if _, err := parseBackends("  "); err == nil {
		t.Error("blank spec accepted")
	}
}
