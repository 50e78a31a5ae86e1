package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/serve"
)

func TestPercentileWantsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, ok := percentile(sorted, 0.90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, ok)
	}
	if v, ok := percentile(sorted, 0.99); v != 99 || ok {
		t.Errorf("p99 of 1..100 = %v, %v; want 99 flagged as a thin tail", v, ok)
	}
	if _, ok := percentile(sorted[:99], 0.90); ok {
		t.Error("p90 of 99 samples has nine beyond it and must be flagged")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("empty input = %v, %v", v, ok)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{Name: spanClient, Req: 1, StartNs: ms(0), EndNs: ms(100)},
		{Name: spanRouter, Req: 1, StartNs: ms(10), EndNs: ms(90)},
		// A hedged pair: overlapping children count once.
		{Name: spanServe, Req: 1, StartNs: ms(20), EndNs: ms(50)},
		{Name: spanServe, Req: 1, StartNs: ms(40), EndNs: ms(70)},
		{Name: spanAppend, Req: 1, StartNs: ms(25), EndNs: ms(30)},
		// Another operation's span at the same instant is not a child.
		{Name: spanServe, Req: 2, StartNs: ms(20), EndNs: ms(30)},
	}
	link(spans)
	wantParent := []int{-1, 0, 1, 1, 2, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	want := []int64{20, 30, 25, 30, 5, 10} // ms
	for i, d := range self {
		if d != time.Duration(ms(want[i])) {
			t.Errorf("span %d (%s) self = %v, want %dms", i, spans[i].Name, d, want[i])
		}
	}
}

func TestCalibratorScalesByTheNearestKernelRuns(t *testing.T) {
	c := &calibrator{origin: time.Now()}
	if got := c.slowdown(c.origin); got != 1 {
		t.Errorf("slowdown with nothing recorded = %v, want 1", got)
	}
	// Kernel runs 10 ms apart: reference speed, then half of it; the third
	// run caught an interrupt.
	for i, took := range []time.Duration{calibRef, calibRef, 9 * calibRef, 2 * calibRef, 2 * calibRef} {
		c.at = append(c.at, time.Duration(i)*10*time.Millisecond)
		c.took = append(c.took, took)
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{
		{-time.Millisecond, 1},     // before the first run: the first three
		{5 * time.Millisecond, 1},  // runs 0, 1, 2: the interrupt is outvoted
		{25 * time.Millisecond, 2}, // runs 2, 3, 4
		{time.Second, 2},           // after the last run: the last three
	} {
		if got := c.slowdown(c.origin.Add(tc.at)); got != tc.want {
			t.Errorf("slowdown at %v = %v, want %v", tc.at, got, tc.want)
		}
	}
	at := c.origin.Add(25 * time.Millisecond)
	if got := c.atReference(at, 10*time.Millisecond, 1); got != 5*time.Millisecond {
		t.Errorf("10 ms of computing at half speed = %v at reference speed, want 5ms", got)
	}
	// A timer does not run slower on a slow machine: only the computing
	// share of a wait is scaled.
	if got := c.atReference(at, 10*time.Millisecond, 0.5); got != 7500*time.Microsecond {
		t.Errorf("10 ms, half of it computing, at half speed = %v at reference speed, want 7.5ms", got)
	}
	if got := computingShare(3, 1, 4); got != 0.5 {
		t.Errorf("computingShare(3, 1, 4) = %v, want 0.5", got)
	}
	if got := computingShare(9, 1, 4); got != 1 {
		t.Errorf("computingShare past 1 = %v, want the cap", got)
	}
}

// stream draws n requests per client from fresh traffic.
func stream(t *testing.T, newTraffic func(int64, int) (traffic, error), seed int64, n int) [][]byte {
	t.Helper()
	const clients = 2
	tr, err := newTraffic(seed, clients)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for i := 0; i < n; i++ {
		for c := 0; c < clients; c++ {
			rq, err := tr.next(c)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, rq.body)
		}
	}
	return bodies
}

func TestSameSeedSameRequests(t *testing.T) {
	kinds := map[string]func(int64, int) (traffic, error){
		"hit": newHitTraffic, "miss": newMissTraffic, "mutate": newMutateTraffic,
	}
	for name, newTraffic := range kinds {
		a, b := stream(t, newTraffic, 7, 12), stream(t, newTraffic, 7, 12)
		other := stream(t, newTraffic, 8, 12)
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: request %d differs between two runs of seed 7", name, i)
			}
			same = same && bytes.Equal(a[i], other[i])
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 produced the same requests", name)
		}
	}
}

func TestMissFingerprintsAreDistinct(t *testing.T) {
	seen := make(map[string]int)
	for i, body := range stream(t, newMissTraffic, 3, 200) {
		req, err := serve.DecodeSolveRequest(bytes.NewReader(body), serve.DecodeLimits{})
		if err != nil {
			t.Fatal(err)
		}
		fp, err := req.Graph.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[fp]; dup {
			t.Fatalf("requests %d and %d carry the same graph", j, i)
		}
		seen[fp] = i
	}
}

func TestMutateDeltasStayIncrementalAndNeverRepeat(t *testing.T) {
	tr, err := newMutateTraffic(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ln := tr.(*mutateTraffic).lineages[0]
	fp, err := ln.mirror.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{fp: true}
	for i := 0; i < 20; i++ {
		view := ln.mirror.Clone().Compile()
		d, err := ln.delta()
		if err != nil {
			t.Fatal(err)
		}
		patched, info, err := view.Patch(d)
		if err != nil {
			t.Fatalf("delta %d does not patch: %v", i, err)
		}
		if frac := float64(info.TouchedEdges) / float64(patched.NumEdges()); frac <= 0 || frac > core.DefaultMaxTouchedFraction {
			t.Errorf("delta %d touches %.3f of the edges; the incremental path needs (0, %.2f]", i, frac, core.DefaultMaxTouchedFraction)
		}
		if len(ln.edges) != ln.mirror.NumEdges() {
			t.Fatalf("delta %d: edge list has %d edges, mirror %d", i, len(ln.edges), ln.mirror.NumEdges())
		}
		// The solution cache keys on the fingerprint: a repeat would hit.
		if fp, err = ln.mirror.Fingerprint(); err != nil {
			t.Fatal(err)
		}
		if seen[fp] {
			t.Fatalf("delta %d reproduces an earlier graph", i)
		}
		seen[fp] = true
	}
}

// TestSmokeEmitsExactlyTheManifest runs every workload through the command
// line with a tenth-of-a-second window, traced and untraced, and checks that
// each prints the names and units BENCHMARK.json lists and nothing else.
func TestSmokeEmitsExactlyTheManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all seven workloads twice")
	}
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	out := t.TempDir()
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("manifest workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		for trace, defs := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			var stdout, diag bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "0.1", "--out", out}
			if trace == 1 {
				args = append(args, "--trace", "1")
			}
			if err := run(context.Background(), args, &stdout, &diag); err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w.Name, trace, err, diag.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace %d: printed %d metrics, manifest lists %d", w.Name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := r.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s: printed %+v (present %v), manifest unit %q", w.Name, trace, d.Name, got, ok, d.Unit)
				}
				if trace == 0 && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, got.Value)
				}
			}
		}
	}
}
