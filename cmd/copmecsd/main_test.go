package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"copmecs/internal/core"
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

// startDaemon launches run on an ephemeral port and returns the base URL,
// the stop channel, the output buffer, and run's error channel.
func startDaemon(t *testing.T, extraArgs ...string) (string, chan os.Signal, *syncBuffer, chan error) {
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

func TestDaemonServesAndDrains(t *testing.T) {
	base, stop, out, done := startDaemon(t)

	// The one probe endpoint reports readiness and uptime without touching
	// the solve path; load balancers and the fleet router's prober poll it.
	pr, err := http.Get(base + "/v1/health")
	if err != nil {
		t.Fatalf("health: %v", err)
	}
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("health = %d, want 200", pr.StatusCode)
	}
	var health struct {
		Status  string  `json:"status"`
		UptimeS float64 `json:"uptime_s"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&health); err != nil {
		t.Fatalf("health decode: %v", err)
	}
	pr.Body.Close()
	if health.Status != "ready" {
		t.Fatalf("health status = %q, want ready", health.Status)
	}
	if health.UptimeS < 0 {
		t.Fatalf("health uptime_s = %v, want ≥ 0", health.UptimeS)
	}

	// Two identical solves: fresh then cached.
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

	if st := statsDoc(t, base); st.Requests != 2 || st.Solved != 2 || st.Cache.Hits != 1 {
		t.Fatalf("stats: requests %d solved %d cache hits %d, want 2 2 1", st.Requests, st.Solved, st.Cache.Hits)
	}

	// 32 concurrent posts of the example request: each is answered with a
	// decision, and the duplicates are deduplicated or cached rather than
	// solved in 32 rounds.
	example, err := os.ReadFile("../../examples/service/request.json")
	if err != nil {
		t.Fatalf("read example request: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(example))
			if err != nil {
				t.Errorf("burst solve: %v", err)
				return
			}
			defer resp.Body.Close()
			var body struct {
				Remote []int `json:"remote"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK || len(body.Remote) == 0 {
				t.Errorf("burst solve: status %d, remote %v, decode error %v", resp.StatusCode, body.Remote, err)
			}
		}()
	}
	wg.Wait()
	st := statsDoc(t, base)
	if st.Requests < 32 || st.Solved < 32 || st.BadRequests != 0 ||
		st.Deduped+st.Cache.Hits == 0 || st.Batch.Rounds >= 32 {
		t.Fatalf("after burst: requests %d solved %d bad %d deduped %d cache hits %d rounds %d",
			st.Requests, st.Solved, st.BadRequests, st.Deduped, st.Cache.Hits, st.Batch.Rounds)
	}

	// A malformed body is a 400, not a crash.
	br, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatalf("malformed solve: %v", err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed solve = %d, want 400", br.StatusCode)
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
	if s := out.String(); !strings.Contains(s, "drained: 35 requests, 34 solved") {
		t.Fatalf("drain summary missing: %q", s)
	}
}

// TestDaemonDrainClosesUnusedConnections: a connection dialed and never
// written to (a router's spare, a health checker's pre-dial) must not hold
// the drain. net/http's Shutdown counts such a StateNew connection as idle
// only once it is 5 s old, so without the daemon closing it the drain took
// ≈ 5 s.
func TestDaemonDrainClosesUnusedConnections(t *testing.T) {
	base, stop, out, done := startDaemon(t)
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// A request on a second connection: the server accepts in dial order,
	// so once it is answered the first connection is accepted too, not
	// still in the backlog when Shutdown closes the listener.
	statsDoc(t, base)

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
	if took := time.Since(start); took > 2*time.Second || !strings.Contains(out.String(), "copmecsd: drained:") {
		t.Fatalf("drain took %v (output %q), want a drained line within 2s", took, out.String())
	}
}

func TestDaemonDebugMux(t *testing.T) {
	base, stop, out, done := startDaemon(t, "-debug-addr", "127.0.0.1:0")

	re := regexp.MustCompile(`pprof on (\S+)/debug/pprof/`)
	m := re.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no pprof banner: %q", out.String())
	}
	dr, err := http.Get("http://" + m[1] + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("pprof cmdline: %v", err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline = %d, want 200", dr.StatusCode)
	}
	// The service mux must NOT expose pprof.
	sr, err := http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("service pprof probe: %v", err)
	}
	sr.Body.Close()
	if sr.StatusCode == http.StatusOK {
		t.Fatal("service port exposes pprof")
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-zap"}, nil, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-engine", "bogus"}, nil, &out); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, nil, &out); err == nil {
		t.Error("bad address accepted")
	}
	if err := run([]string{"-capacity", "-5"}, nil, &out); err == nil {
		t.Error("negative capacity accepted")
	}
	for _, removed := range []string{"-max-qps", "-rate-burst"} {
		if err := run([]string{removed, "5"}, nil, &out); err == nil {
			t.Errorf("%s accepted; the daemon has no rate cap", removed)
		}
	}
}

func TestEngineByName(t *testing.T) {
	for _, name := range []string{"spectral", "maxflow", "kernighan-lin", "kl", "stoer-wagner", "sw"} {
		if _, err := core.EngineByName(name); err != nil {
			t.Errorf("engineByName(%q): %v", name, err)
		}
	}
	if _, err := core.EngineByName("nope"); err == nil {
		t.Error("engineByName accepted an unknown name")
	}
}

func TestDaemonContentionProfiles(t *testing.T) {
	// -mutex-profile / -block-profile turn on the runtime's contention
	// profilers; their pprof endpoints on the debug mux must then answer
	// 200 with profile data.
	base, stop, out, done := startDaemon(t,
		"-debug-addr", "127.0.0.1:0",
		"-mutex-profile", "2", "-block-profile", "10000")
	defer func() {
		runtime.SetMutexProfileFraction(0)
		runtime.SetBlockProfileRate(0)
	}()

	re := regexp.MustCompile(`pprof on (\S+)/debug/pprof/`)
	m := re.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no pprof banner: %q", out.String())
	}
	// Generate a little lock traffic so the profiles have something to say.
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(testBody))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	resp.Body.Close()
	for _, profile := range []string{"mutex", "block"} {
		pr, err := http.Get("http://" + m[1] + "/debug/pprof/" + profile + "?debug=1")
		if err != nil {
			t.Fatalf("pprof %s: %v", profile, err)
		}
		pr.Body.Close()
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("pprof %s = %d, want 200", profile, pr.StatusCode)
		}
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop")
	}
}
