package main

// SIGKILL suite: crash recovery of the durable daemon and failover of a
// fleet. The scenarios need real processes to murder, so TestMain re-execs
// the test binary as the daemon when COPMECSD_DAEMON_ARGS is set (flags
// joined with \x1f). The crash tests kill a daemon mid-round and restart
// it on the same data directory, asserting the crash invariant: every
// request that was answered 200 before the kill is answered from cache
// after recovery. The fleet test kills one of two backends behind a router
// and asserts that no request is lost.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/graph"
	"copmecs/internal/router"
	"copmecs/internal/serve"
)

const daemonArgsEnv = "COPMECSD_DAEMON_ARGS"

func TestMain(m *testing.M) {
	if raw := os.Getenv(daemonArgsEnv); raw != "" {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, syscall.SIGTERM, os.Interrupt)
		if err := run(strings.Split(raw, "\x1f"), stop, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// crashBody returns the i-th of a family of distinct solve bodies: the
// node weights vary with i, so each index has its own request key.
func crashBody(i int) string {
	return fmt.Sprintf(`{"graph":{"nodes":[{"id":0,"weight":%d},{"id":1,"weight":120},`+
		`{"id":2,"weight":%d},{"id":3,"weight":30}],`+
		`"edges":[{"u":0,"v":1,"weight":40},{"u":1,"v":2,"weight":5},{"u":2,"v":3,"weight":60}]}}`,
		50+i, 200+(i%7)*10)
}

// daemonProc is a copmecsd child process started from the test binary.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	out  *syncBuffer
	wait chan error
}

// startDaemonProc re-execs the test binary as a daemon with args and
// waits for its listening banner.
func startDaemonProc(t *testing.T, args ...string) *daemonProc {
	t.Helper()
	full := append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), daemonArgsEnv+"="+strings.Join(full, "\x1f"))
	// Wait returns only after the copy into out is complete, so the last
	// line the child wrote is in out once wait delivers.
	out := &syncBuffer{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon child: %v", err)
	}
	wait := make(chan error, 1)
	go func() { wait <- cmd.Wait() }()

	re := regexp.MustCompile(`listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return &daemonProc{cmd: cmd, base: "http://" + m[1], out: out, wait: wait}
		}
		select {
		case err := <-wait:
			t.Fatalf("daemon child exited early: %v (output %q)", err, out.String())
		default:
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = cmd.Process.Kill()
	t.Fatalf("no listening banner from child: %q", out.String())
	return nil
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within 10s
// and the daemon's drain summary line.
func (d *daemonProc) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Errorf("SIGTERM: %v", err)
		return
	}
	select {
	case err := <-d.wait:
		if err != nil {
			t.Errorf("daemon exited with %v after SIGTERM (output %q)", err, d.out.String())
		}
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Errorf("daemon did not drain within 10s of SIGTERM")
		return
	}
	if s := d.out.String(); !strings.Contains(s, "copmecsd: drained:") {
		t.Errorf("drain summary missing: %q", s)
	}
}

// solveCached posts body and returns (status, cached flag).
func solveCached(t *testing.T, base, body string) (int, bool) {
	t.Helper()
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, false
	}
	var out struct {
		Cached bool `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode solve response: %v", err)
	}
	return resp.StatusCode, out.Cached
}

// statsDoc fetches and decodes a daemon's /v1/stats document.
func statsDoc(t *testing.T, base string) serve.Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return st
}

// replayStats returns the recovery section of a durable daemon's stats.
func replayStats(t *testing.T, st serve.Stats) *serve.RecoveryStats {
	t.Helper()
	if st.Durability == nil || st.Durability.Replay == nil {
		t.Fatalf("durability replay section missing: %+v", st.Durability)
	}
	return st.Durability.Replay
}

func TestCrashRecoveryZeroLostAcceptedRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs and SIGKILLs a child process")
	}
	dir := t.TempDir()
	// The background load solves a never-seen graph per request, far more
	// than the default cache holds in 500ms now that a lone request no
	// longer waits out the batch window; size the cache so LRU eviction
	// (which legitimately forgets a decision) can't fire.
	args := []string{
		"-data-dir", dir,
		"-batch-wait", "20ms",
		"-fsync-interval", "5ms",
		"-snapshot-interval", "300ms",
		"-cache", "200000",
	}
	d := startDaemonProc(t, args...)

	// Phase 1: a known set of accepted requests, each answered 200 — the
	// crash invariant is quantified over exactly these.
	const accepted = 8
	for i := 0; i < accepted; i++ {
		if st, _ := solveCached(t, d.base, crashBody(i)); st != http.StatusOK {
			t.Fatalf("pre-kill solve %d: status %d", i, st)
		}
	}

	// Phase 2: background load so the kill lands mid-round, with solves,
	// journal appends and (every 300ms) snapshot writes all in flight.
	var killed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !killed.Load(); i++ {
				body := crashBody(accepted + w*10_000 + i)
				resp, err := http.Post(d.base+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					return // the kill severed the connection
				}
				resp.Body.Close()
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond) // span at least one snapshot cycle
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	killed.Store(true)
	wg.Wait()
	if err := <-d.wait; err == nil {
		t.Fatal("SIGKILLed child reported clean exit")
	}

	// Phase 3: restart on the same data directory and hold the invariant.
	d2 := startDaemonProc(t, args...)
	defer d2.stop(t)
	if s := d2.out.String(); !strings.Contains(s, "recovered") {
		t.Fatalf("restart banner missing recovery line: %q", s)
	}
	for i := 0; i < accepted; i++ {
		st, cached := solveCached(t, d2.base, crashBody(i))
		if st != http.StatusOK {
			t.Fatalf("post-crash solve %d: status %d", i, st)
		}
		if !cached {
			t.Fatalf("accepted request %d lost across the crash (not served from cache)", i)
		}
	}
	st := statsDoc(t, d2.base)
	replay := replayStats(t, st)
	if replay.ReplayErrors != 0 || replay.DecodeErrors != 0 {
		t.Fatalf("recovery was lossy: %+v", *replay)
	}
	// The accepted set was recovered into the cache: snapshot decisions
	// plus journal replays must at least cover it.
	if n := replay.SnapshotDecisions + replay.ReplayWarm + replay.ReplaySolved; n < accepted {
		t.Fatalf("recovered %d keys, want >= %d", n, accepted)
	}
	if st.Cache.Hits < accepted {
		t.Fatalf("warm-cache hits = %d, want >= %d", st.Cache.Hits, accepted)
	}
}

// mutateDoc posts a mutate body and returns (status, decoded response).
func mutateDoc(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/mutate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode mutate response: %v", err)
	}
	return resp.StatusCode, doc
}

// fingerprintOfBody resolves a solve body's graph fingerprint the same way
// the daemon does.
func fingerprintOfBody(t *testing.T, body string) string {
	t.Helper()
	req, err := serve.DecodeSolveRequest(strings.NewReader(body), serve.DecodeLimits{})
	if err != nil {
		t.Fatalf("decode body: %v", err)
	}
	fp, err := req.Graph.Fingerprint()
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

func TestCrashRecoveryMutationsSurviveSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs and SIGKILLs a child process")
	}
	dir := t.TempDir()
	// The background chain interns one graph per mutation; size the caches
	// so LRU eviction (which legitimately forgets a base) can't fire.
	args := []string{
		"-data-dir", dir,
		"-batch-wait", "20ms",
		"-fsync-interval", "5ms",
		"-snapshot-interval", "300ms",
		"-graph-cache", "65536",
	}
	d := startDaemonProc(t, args...)

	// Phase 1: a known chain of mutations, each answered 200. The journal
	// now holds mutate records whose bases are earlier records' graphs.
	seed := crashBody(0)
	if st, _ := solveCached(t, d.base, seed); st != http.StatusOK {
		t.Fatalf("seed solve: status %d", st)
	}
	fp := fingerprintOfBody(t, seed)
	const chain = 3
	chainFps := make([]string, 0, chain)
	chainObjs := make([]float64, 0, chain)
	mutateAt := func(base string, w int) string {
		return fmt.Sprintf(`{"base":%q,"delta":{"set_node_weights":[{"id":0,"weight":%d}]}}`, base, w)
	}
	for i := 0; i < chain; i++ {
		st, doc := mutateDoc(t, d.base, mutateAt(fp, 500+i))
		if st != http.StatusOK {
			t.Fatalf("pre-kill mutate %d: status %d: %v", i, st, doc)
		}
		fp = doc["graph"].(string)
		chainFps = append(chainFps, fp)
		chainObjs = append(chainObjs, doc["batch_objective"].(float64))
	}

	// Phase 2: background mutation load on a second chain so the SIGKILL
	// lands with mutate journal appends and delta solves in flight.
	second := crashBody(1)
	if st, _ := solveCached(t, d.base, second); st != http.StatusOK {
		t.Fatalf("second seed solve: status %d", st)
	}
	var killed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := fingerprintOfBody(t, second)
		for i := 0; !killed.Load(); i++ {
			resp, err := http.Post(d.base+"/v1/mutate", "application/json",
				strings.NewReader(mutateAt(cur, 1000+i)))
			if err != nil {
				return // the kill severed the connection
			}
			var doc struct {
				Graph string `json:"graph"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if len(doc.Graph) == 64 {
				cur = doc.Graph
			}
			time.Sleep(2 * time.Millisecond) // bound the chain length
		}
	}()
	time.Sleep(500 * time.Millisecond) // span at least one snapshot cycle
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	killed.Store(true)
	wg.Wait()
	if err := <-d.wait; err == nil {
		t.Fatal("SIGKILLed child reported clean exit")
	}

	// Phase 3: restart. Replay must reconstruct every mutated graph from
	// base + delta and serve the chain's decisions from cache.
	d2 := startDaemonProc(t, args...)
	defer d2.stop(t)
	fp = fingerprintOfBody(t, seed)
	for i := 0; i < chain; i++ {
		st, doc := mutateDoc(t, d2.base, mutateAt(fp, 500+i))
		if st != http.StatusOK {
			t.Fatalf("post-crash mutate %d: status %d: %v", i, st, doc)
		}
		if got := doc["graph"].(string); got != chainFps[i] {
			t.Fatalf("post-crash mutate %d: graph %s, want %s", i, got, chainFps[i])
		}
		if cached, _ := doc["cached"].(bool); !cached {
			t.Fatalf("post-crash mutate %d not served from cache", i)
		}
		if got := doc["batch_objective"].(float64); got != chainObjs[i] {
			t.Fatalf("post-crash mutate %d: objective %v, want %v", i, got, chainObjs[i])
		}
		fp = chainFps[i]
	}
	replay := replayStats(t, statsDoc(t, d2.base))
	if replay.ReplayErrors != 0 || replay.DecodeErrors != 0 {
		t.Fatalf("recovery was lossy: %+v", *replay)
	}
	if replay.ReplayMutates < chain {
		t.Fatalf("replay_mutates = %d, want >= %d", replay.ReplayMutates, chain)
	}
}

// fleetReply is one answered request of the fleet scenario.
type fleetReply struct {
	body string
	resp serve.SolveResponse
}

// routerStats fetches and decodes a router's /v1/stats document.
func routerStats(t *testing.T, base string) router.StatsDocument {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("router stats: %v", err)
	}
	defer resp.Body.Close()
	var doc router.StatsDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("router stats decode: %v", err)
	}
	return doc
}

// eventually polls cond until it holds. It fails the test after 10s, or
// as soon as another goroutine has reported a failure.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if t.Failed() {
			t.FailNow()
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkFleetReply holds one answer to its body's graph: every reply is
// sound, and a one-user round's reply is bit for bit the paper's offline
// solver (Algorithm 2 at k = 1) under the daemon's defaults. It reports
// whether the reply was held to the offline solver.
func checkFleetReply(t *testing.T, r fleetReply) bool {
	t.Helper()
	req, err := serve.DecodeSolveRequest(strings.NewReader(r.body), serve.DecodeLimits{})
	if err != nil {
		t.Fatalf("decode body: %v", err)
	}
	g, got := req.Graph, r.resp
	if sum := got.LocalWork + got.RemoteWork; sum != g.TotalNodeWeight() {
		t.Fatalf("local_work + remote_work = %v, graph weight %v: %s", sum, g.TotalNodeWeight(), r.body)
	}
	for i, id := range got.Remote {
		if !g.HasNode(id) || (i > 0 && id <= got.Remote[i-1]) {
			t.Fatalf("remote %v is not an ascending list of the graph's nodes: %s", got.Remote, r.body)
		}
	}
	if got.BatchUsers != 1 {
		return false
	}
	sol, err := core.Solve(context.Background(), []core.UserInput{{Graph: g}}, core.Options{})
	if err != nil {
		t.Fatalf("offline solve: %v", err)
	}
	var remote []graph.NodeID
	for id, off := range sol.Placements[0].Remote {
		if off {
			remote = append(remote, id)
		}
	}
	slices.Sort(remote)
	if !slices.Equal(got.Remote, remote) {
		t.Fatalf("remote %v, offline %v: %s", got.Remote, remote, r.body)
	}
	st, c := sol.States[0], sol.Eval.PerUser[0]
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"local_work", got.LocalWork, st.LocalWork},
		{"remote_work", got.RemoteWork, st.RemoteWork},
		{"cut_weight", got.CutWeight, st.CutWeight},
		{"local_time", got.Cost.LocalTime, c.LocalTime},
		{"remote_time", got.Cost.RemoteTime, c.RemoteTime},
		{"wait_time", got.Cost.WaitTime, c.WaitTime},
		{"transmission_time", got.Cost.TransmissionTime, c.TransmissionTime},
		{"local_energy", got.Cost.LocalEnergy, c.LocalEnergy},
		{"transmission_energy", got.Cost.TransmissionEnergy, c.TransmissionEnergy},
		{"server_share", got.Cost.ServerShare, c.ServerShare},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s = %v, offline %v: %s", f.name, f.got, f.want, r.body)
		}
	}
	return true
}

// TestFleetBackendSIGKILLLosesNoRequest is the fleet fault-tolerance
// scenario. Two re-exec'd backends sit behind an in-process router with
// the probe settings of `copmecs-router -probe-interval 100ms
// -quarantine-after 1 -readmit-after 2`. Four clients post throughout
// while be-a is SIGKILLed and later restarted on its old address. Every
// request must be answered 200, the router must quarantine and re-admit
// be-a, and every answer must agree with the offline solver.
func TestFleetBackendSIGKILLLosesNoRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs and SIGKILLs child processes")
	}
	a := startDaemonProc(t, "-id", "be-a")
	b := startDaemonProc(t, "-id", "be-b")
	defer b.stop(t)
	rt, err := router.New(router.Config{
		Backends:        []router.BackendConfig{{Name: "be-a", URL: a.base}, {Name: "be-b", URL: b.base}},
		ProbeInterval:   100 * time.Millisecond,
		QuarantineAfter: 1,
		ReadmitAfter:    2,
	})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rt.Start(ctx)
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Each request replays one of 16 bodies with probability 0.9 and posts
	// a never-seen graph otherwise. A client checks halt before posting,
	// so stopping never cuts a request off.
	const clients, corpus = 4, 16
	var (
		halt     atomic.Bool
		answered atomic.Int64
		fresh    atomic.Int64
		wg       sync.WaitGroup
	)
	fresh.Store(corpus - 1)
	replies := make([][]fleetReply, clients)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for !halt.Load() {
				body := crashBody(rng.Intn(corpus))
				if rng.Float64() >= 0.9 {
					body = crashBody(int(fresh.Add(1)))
				}
				resp, err := client.Post(front.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d (%v): %s", w, resp.StatusCode, err, raw)
					return
				}
				r := fleetReply{body: body}
				if err := json.Unmarshal(raw, &r.resp); err != nil {
					t.Errorf("client %d: decode reply: %v", w, err)
					return
				}
				replies[w] = append(replies[w], r)
				answered.Add(1)
			}
		}(w)
	}
	stopClients := func() {
		halt.Store(true)
		wg.Wait()
	}
	defer stopClients()

	eventually(t, "50 answers", func() bool { return answered.Load() >= 50 })
	if err := a.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL be-a: %v", err)
	}
	if err := <-a.wait; err == nil {
		t.Fatal("SIGKILLed be-a reported clean exit")
	}
	eventually(t, "be-a quarantined", func() bool {
		return routerStats(t, front.URL).Router.Probes.Quarantines >= 1
	})
	a = startDaemonProc(t, "-id", "be-a", "-addr", strings.TrimPrefix(a.base, "http://"))
	defer a.stop(t)
	mark := answered.Load()
	eventually(t, "be-a re-admitted and 50 more answers", func() bool {
		return answered.Load() >= mark+50 && routerStats(t, front.URL).Router.Probes.Readmissions >= 1
	})
	stopClients()
	if t.Failed() {
		return
	}

	for _, bs := range routerStats(t, front.URL).Router.Backends {
		if bs.State != "ready" {
			t.Fatalf("backend %s ends %s, want ready", bs.Name, bs.State)
		}
	}
	total, exact := 0, 0
	for _, rs := range replies {
		for _, r := range rs {
			total++
			if checkFleetReply(t, r) {
				exact++
			}
		}
	}
	if exact == 0 {
		t.Fatalf("none of %d replies came from a one-user round", total)
	}
	t.Logf("%d replies, all 200; %d from one-user rounds equal the offline solver", total, exact)
}

func TestDaemonDurableGracefulRestartWarm(t *testing.T) {
	// SIGTERM writes a final snapshot; a restart on the same directory
	// must answer the old bodies from cache with zero journal replay work.
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-fsync-interval", "5ms"}
	base, stop, out, done := startDaemon(t, args...)
	const n = 3
	for i := 0; i < n; i++ {
		if st, cached := solveCached(t, base, crashBody(i)); st != http.StatusOK || cached {
			t.Fatalf("solve %d = (%d, cached=%v), want fresh 200", i, st, cached)
		}
	}
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v (output %q)", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after SIGTERM")
	}

	base2, stop2, _, done2 := startDaemon(t, args...)
	for i := 0; i < n; i++ {
		st, cached := solveCached(t, base2, crashBody(i))
		if st != http.StatusOK || !cached {
			t.Fatalf("restarted solve %d = (%d, cached=%v), want cached 200", i, st, cached)
		}
	}
	st := statsDoc(t, base2)
	replay := replayStats(t, st)
	if st.Durability.SnapshotSeq < 1 {
		t.Fatalf("snapshot_seq = %d, want >= 1 after graceful restart", st.Durability.SnapshotSeq)
	}
	if replay.SnapshotDecisions < n {
		t.Fatalf("snapshot restored %d decisions, want >= %d", replay.SnapshotDecisions, n)
	}
	if replay.ReplaySolved != 0 {
		t.Fatalf("graceful restart re-solved %d requests, want 0 (snapshot covers the journal)",
			replay.ReplaySolved)
	}
	stop2 <- syscall.SIGTERM
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second run did not stop")
	}
}

func TestDaemonDefaultStaysInMemory(t *testing.T) {
	// Without -data-dir the daemon keeps PR 5's in-memory behavior: no
	// durability stats section and no files on disk.
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatalf("getwd: %v", err)
	}
	before, err := os.ReadDir(cwd)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	base, stop, _, done := startDaemon(t)
	if st, _ := solveCached(t, base, crashBody(0)); st != http.StatusOK {
		t.Fatalf("solve: status %d", st)
	}
	if d := statsDoc(t, base).Durability; d != nil {
		t.Fatalf("in-memory daemon exposes durability section: %+v", *d)
	}
	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop")
	}
	after, err := os.ReadDir(cwd)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	if len(after) != len(before) {
		t.Fatalf("in-memory daemon changed the working directory: %d -> %d entries", len(before), len(after))
	}
}
