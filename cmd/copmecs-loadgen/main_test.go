package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copmecs/internal/serve"
)

// startTarget boots an in-process serving stack for the generator to hit.
func startTarget(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer dcancel()
		_ = s.Drain(dctx)
		cancel()
	})
	return ts
}

// runSummary invokes run with args and decodes the JSON summary.
func runSummary(t *testing.T, args []string) result {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("summary decode: %v (output %q)", err, out.String())
	}
	return res
}

func TestClosedLoopAgainstLiveServer(t *testing.T) {
	ts := startTarget(t)
	res := runSummary(t, []string{
		"-addr", ts.URL, "-duration", "400ms", "-concurrency", "4",
		"-corpus", "4", "-repeat", "0.9", "-wait-ready", "2s", "-fail-5xx",
	})
	if res.OK == 0 {
		t.Fatalf("no successful requests: %+v", res)
	}
	if res.Errors5xx != 0 || res.ErrorsOther != 0 {
		t.Fatalf("errors in summary: %+v", res)
	}
	if res.Cached == 0 {
		t.Fatalf("repeat ratio 0.9 over 4 graphs produced no cache hits: %+v", res)
	}
	if res.AchievedQPS <= 0 {
		t.Fatalf("achieved_qps = %v, want > 0", res.AchievedQPS)
	}
	if res.LatencyMs.P50 <= 0 || res.LatencyMs.Max < res.LatencyMs.P99 {
		t.Fatalf("implausible latency summary: %+v", res.LatencyMs)
	}
}

// fleetSmokeArgs extracts the loadgen flag line scripts/fleet_smoke.sh
// passes, with the script's shell variables replaced by test values.
func fleetSmokeArgs(t *testing.T, addr, duration, outPath string) []string {
	t.Helper()
	script, err := os.ReadFile(filepath.Join("..", "..", "scripts", "fleet_smoke.sh"))
	if err != nil {
		t.Fatalf("read fleet_smoke.sh: %v", err)
	}
	const call = `"$bin/copmecs-loadgen" `
	_, rest, found := strings.Cut(string(script), "\n"+call)
	if !found {
		t.Fatalf("fleet_smoke.sh no longer invokes %s", call)
	}
	line, _, _ := strings.Cut(rest, " &\n")
	line = strings.ReplaceAll(line, "\\\n", " ")
	args := strings.Fields(strings.NewReplacer(
		`"http://127.0.0.1:$baseport"`, addr,
		`"$duration"`, duration,
		`"$bin/smoke.json"`, outPath,
	).Replace(line))
	for _, a := range args {
		if strings.ContainsAny(a, `$"`) {
			t.Fatalf("unsubstituted shell syntax %q in %q", a, args)
		}
	}
	return args
}

func TestFleetSmokeFlagLine(t *testing.T) {
	// The CI fleet gate is this tool's one caller: the flags it passes must
	// parse, and the summary must carry the fields its jq assertion reads.
	ts := startTarget(t)
	path := filepath.Join(t.TempDir(), "smoke.json")
	var out bytes.Buffer
	if err := run(fleetSmokeArgs(t, ts.URL, "300ms", path), &out); err != nil {
		t.Fatalf("run with fleet_smoke.sh's flags: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty with -o: %q", out.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read summary: %v", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatalf("summary decode: %v", err)
	}
	for _, key := range []string{"requests", "ok", "shed", "errors_5xx", "errors_other"} {
		if _, present := raw[key]; !present {
			t.Errorf("summary lacks %q, which fleet_smoke.sh asserts on: %s", key, b)
		}
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("summary decode: %v", err)
	}
	if res.Requests == 0 || res.OK != res.Requests {
		t.Fatalf("ok %d of %d requests against a healthy server", res.OK, res.Requests)
	}
}

func TestFail5xxPropagates(t *testing.T) {
	// A target that always answers 500 must fail the run under -fail-5xx.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-duration", "200ms", "-concurrency", "2", "-fail-5xx"}, &out)
	if err == nil {
		t.Fatal("run succeeded despite 5xx responses")
	}
}

func TestFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-concurrency", "0"},
		{"-corpus", "0"},
		{"-repeat", "1.5"},
		{"-repeat", "-0.1"},
		{"-zap"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted invalid flags", args)
		}
	}
}

func TestTrafficGenRepeatMix(t *testing.T) {
	gen := newTrafficGen(8, 10, 0.5, 42)
	rng := rand.New(rand.NewSource(9))
	seen := make(map[string]int)
	for i := 0; i < 400; i++ {
		seen[string(gen.request(rng))]++
	}
	repeats := 0
	for _, n := range seen {
		if n > 1 {
			repeats += n
		}
	}
	// With repeat = 0.5 over a corpus of 8, roughly half the traffic lands
	// on repeated bodies; require the mix to be clearly mixed rather than
	// degenerate in either direction.
	if repeats < 100 || repeats > 300 {
		t.Fatalf("repeated-body requests = %d of 400, want a mixed workload", repeats)
	}
	if len(seen) < 100 {
		t.Fatalf("distinct bodies = %d, want many fresh graphs", len(seen))
	}
}

func TestGraphBodyDecodesAsSolveRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	body := graphBody(rng, 12, 3)
	req, err := serve.DecodeSolveRequest(bytes.NewReader(body), serve.DecodeLimits{})
	if err != nil {
		t.Fatalf("generated body rejected by the server decoder: %v", err)
	}
	if req.Graph == nil {
		t.Fatal("decoded request has no graph")
	}
}
