package main

// Crash-recovery suite for the durable daemon. The SIGKILL scenario needs
// a real process to murder, so TestMain re-execs the test binary as the
// daemon when COPMECSD_DAEMON_ARGS is set (flags joined with \x1f); the
// parent kills it mid-round and restarts it on the same data directory,
// asserting the crash invariant: every request that was answered 200
// before the kill is answered from cache after recovery.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

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
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon child: %v", err)
	}
	out := &syncBuffer{}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			fmt.Fprintln(out, sc.Text())
		}
	}()
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

// statsDoc fetches and decodes /v1/stats as a generic document.
func statsDoc(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	return doc
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
	defer func() {
		_ = d2.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d2.wait:
		case <-time.After(10 * time.Second):
			_ = d2.cmd.Process.Kill()
			t.Error("restarted daemon did not drain after SIGTERM")
		}
	}()
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
	doc := statsDoc(t, d2.base)
	dur, ok := doc["durability"].(map[string]any)
	if !ok {
		t.Fatalf("durability section missing after durable restart: %v", doc["durability"])
	}
	replay, ok := dur["replay"].(map[string]any)
	if !ok {
		t.Fatalf("replay section missing after recovery: %v", dur["replay"])
	}
	if replay["replay_errors"].(float64) != 0 || replay["decode_errors"].(float64) != 0 {
		t.Fatalf("recovery was lossy: %v", replay)
	}
	// The accepted set was recovered into the cache: snapshot decisions
	// plus journal replays must at least cover it.
	recoveredKeys := replay["snapshot_decisions"].(float64) +
		replay["replay_warm"].(float64) + replay["replay_solved"].(float64)
	if recoveredKeys < accepted {
		t.Fatalf("recovered %v keys, want >= %d", recoveredKeys, accepted)
	}
	if hits := doc["cache"].(map[string]any)["hits"].(float64); hits < accepted {
		t.Fatalf("warm-cache hits = %v, want >= %d", hits, accepted)
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
	defer func() {
		_ = d2.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d2.wait:
		case <-time.After(10 * time.Second):
			_ = d2.cmd.Process.Kill()
			t.Error("restarted daemon did not drain after SIGTERM")
		}
	}()
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
	doc := statsDoc(t, d2.base)
	replay := doc["durability"].(map[string]any)["replay"].(map[string]any)
	if replay["replay_errors"].(float64) != 0 || replay["decode_errors"].(float64) != 0 {
		t.Fatalf("recovery was lossy: %v", replay)
	}
	if replay["replay_mutates"].(float64) < chain {
		t.Fatalf("replay_mutates = %v, want >= %d", replay["replay_mutates"], chain)
	}
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
	doc := statsDoc(t, base2)
	dur, ok := doc["durability"].(map[string]any)
	if !ok {
		t.Fatalf("durability section missing: %v", doc["durability"])
	}
	if dur["snapshot_seq"].(float64) < 1 {
		t.Fatalf("snapshot_seq = %v, want >= 1 after graceful restart", dur["snapshot_seq"])
	}
	replay := dur["replay"].(map[string]any)
	if replay["snapshot_decisions"].(float64) < n {
		t.Fatalf("snapshot restored %v decisions, want >= %d", replay["snapshot_decisions"], n)
	}
	if replay["replay_solved"].(float64) != 0 {
		t.Fatalf("graceful restart re-solved %v requests, want 0 (snapshot covers the journal)",
			replay["replay_solved"])
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
	doc := statsDoc(t, base)
	if raw, ok := doc["durability"]; ok {
		t.Fatalf("in-memory daemon exposes durability section: %v", raw)
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
