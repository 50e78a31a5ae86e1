package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"copmecs/internal/core"
	"copmecs/internal/durable"
	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/router"
	"copmecs/internal/serve"
)

// clients is the number of closed-loop callers of a serving workload that
// asks for two, each on its own keep-alive connection: min(2, nproc).
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// backend is one in-process copmecsd: a serve.Server journaling to a
// durable.Store, behind a real loopback listener, wired as cmd/copmecsd
// wires them with every flag at its default.
type backend struct {
	srv    *serve.Server
	store  *durable.Store
	http   *http.Server
	served chan error
	cancel context.CancelFunc
	url    string
}

// stack is the system under test of a serving workload: one backend, or a
// router in front of two.
type stack struct {
	dir      string
	backends []*backend
	rt       *router.Router
	rtHTTP   *http.Server
	rtServed chan error
	rtCancel context.CancelFunc
	url      string
	fsyncs   atomic.Int64
}

func listenAndServe(h http.Handler) (*http.Server, chan error, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	return hs, served, "http://" + ln.Addr().String(), nil
}

// bootStack starts the system in a fresh directory under root. A non-nil
// rec wraps every layer's public interface with span recording.
func bootStack(ctx context.Context, root string, fleet bool, rec *recorder) (*stack, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "stack-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir}
	n := 1
	if fleet {
		n = 2
	}
	for i := 0; i < n; i++ {
		b, err := st.bootBackend(ctx, fmt.Sprintf("b%d", i), rec)
		if err != nil {
			st.close(ctx)
			return nil, err
		}
		st.backends = append(st.backends, b)
	}
	st.url = st.backends[0].url
	if !fleet {
		return st, nil
	}
	members := make([]router.BackendConfig, n)
	for i, b := range st.backends {
		members[i] = router.BackendConfig{Name: fmt.Sprintf("b%d", i), URL: b.url}
	}
	st.rt, err = router.New(router.Config{Backends: members})
	if err != nil {
		st.close(ctx)
		return nil, err
	}
	rctx, cancel := context.WithCancel(ctx)
	st.rtCancel = cancel
	st.rt.Start(rctx)
	h := st.rt.Handler()
	if rec != nil {
		h = rec.wrap(spanRouter, h)
	}
	st.rtHTTP, st.rtServed, st.url, err = listenAndServe(h)
	if err != nil {
		st.close(ctx)
		return nil, err
	}
	return st, nil
}

func (st *stack) bootBackend(ctx context.Context, id string, rec *recorder) (*backend, error) {
	opts := durable.Options{Dir: filepath.Join(st.dir, id)}
	if rec != nil {
		opts.FS = countingFS{syncs: &st.fsyncs}
	}
	store, recovered, err := durable.Open(opts)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{ID: id, Journal: store}
	if rec != nil {
		cfg.Journal = tracedJournal{Journal: store, rec: rec}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	srv.Recover(sctx, recovered.SnapshotRecords, recovered.JournalRecords)
	srv.Start(sctx)
	h := srv.Handler()
	if rec != nil {
		h = rec.wrap(spanServe, h)
	}
	b := &backend{srv: srv, store: store, cancel: cancel}
	b.http, b.served, b.url, err = listenAndServe(h)
	if err != nil {
		cancel()
		_ = store.Close()
		return nil, err
	}
	return b, nil
}

// close drains and stops everything the stack started, waits for it, and
// removes the stack's directory.
func (st *stack) close(ctx context.Context) {
	// Tear down fully even when the run itself was cancelled.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	if st.rt != nil {
		_ = st.rt.Drain(dctx)
	}
	if st.rtHTTP != nil {
		_ = st.rtHTTP.Shutdown(dctx)
		<-st.rtServed
	}
	if st.rtCancel != nil {
		st.rtCancel()
	}
	for _, b := range st.backends {
		_ = b.srv.Drain(dctx)
		_ = b.http.Shutdown(dctx)
		<-b.served
		b.cancel()
		_ = b.store.Close()
	}
	_ = os.RemoveAll(st.dir)
}

// tally is a snapshot of the counters the layers expose; the per-layer
// metrics are differences of two of them.
type tally map[string]float64

func (st *stack) tally(ctx context.Context, c *caller) (tally, error) {
	t := tally{"durable.fsyncs": float64(st.fsyncs.Load())}
	for _, b := range st.backends {
		s := b.srv.Stats()
		t["arrivals"] += float64(s.Requests + s.Incremental.Mutates)
		t["hits"] += float64(s.Cache.Hits)
		t["body_hits"] += float64(s.Cache.BodyHits)
		t["serve.cache_evictions"] += float64(s.Cache.Evictions)
		t["serve.rounds"] += float64(s.Batch.Rounds)
		t["users"] += float64(s.Batch.Users)
		t["serve.fused_rounds"] += float64(s.Batch.FusedRounds)
		t["serve.deduped"] += float64(s.Deduped)
		t["serve.shed"] += float64(s.Shed + s.RateLimited)
		t["serve.delta_solves"] += float64(s.Incremental.DeltaSolves)
		t["serve.cold_fallbacks"] += float64(s.Incremental.ColdFallbacks)
		t["serve.lanczos_iters_saved"] += float64(s.Incremental.LanczosItersSaved)
		d := b.store.Stats()
		t["durable.appends"] += float64(d.JournalRecords)
		t["durable.bytes"] += float64(d.JournalBytes)
	}
	if st.rt != nil {
		status, data, _, err := c.do(ctx, http.MethodGet, "/v1/stats", nil)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("router stats: status %d: %v", status, err)
		}
		var doc router.StatsDocument
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, err
		}
		t["ident_hits"] = float64(doc.Router.IdentHits)
		t["ident_misses"] = float64(doc.Router.IdentMisses)
		t["router.failovers"] = float64(doc.Router.Failovers)
		t["router.hedges"] = float64(doc.Router.Hedges.Fired)
	}
	return t, nil
}

// caller is one keep-alive HTTP client of the stack.
type caller struct {
	base string
	hc   *http.Client
}

func newCaller(base string) *caller {
	return &caller{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *caller) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply; the returned latency runs
// from before the request is built to after the last byte is read.
func (c *caller) do(ctx context.Context, method, path string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // the body was read to its end; nothing left to lose
	return resp.StatusCode, data, time.Since(start), err
}

// post sends one operation and decodes its 200 reply.
func (c *caller) post(ctx context.Context, rq request) (*serve.MutateResponse, time.Duration, error) {
	status, data, lat, err := c.do(ctx, http.MethodPost, rq.path, rq.body)
	if err != nil {
		return nil, lat, err
	}
	if status != http.StatusOK {
		return nil, lat, fmt.Errorf("%s: status %d: %s", rq.path, status, bytes.TrimSpace(data))
	}
	var resp serve.MutateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, lat, err
	}
	return &resp, lat, nil
}

// request is one operation of a serving workload, built outside the timed
// span. nodes and weight describe its graph for the soundness check.
type request struct {
	path    string
	body    []byte
	nodes   int
	weight  float64
	lineage int // mutate_chain: the lineage the delta extends
}

// traffic generates a serving workload's requests from the run's seed.
type traffic interface {
	// warm sends what the workload needs resident before measurement (the
	// corpus, the base graphs); it is part of set-up.
	warm(ctx context.Context, c *caller) error
	// verify is the correctness gate: sequential requests, so every round
	// has one user, each compared with the offline solver.
	verify(ctx context.Context, c *caller, g *gate) error
	// next builds client's next request; done consumes its reply.
	next(client int) (request, error)
	done(rq request, resp *serve.MutateResponse)
	// decode times the request decoder the workload's bodies go through.
	decode(body []byte) error
}

// servSpec is a serving workload.
type servSpec struct {
	fleet      bool
	newTraffic func(seed int64, clients int) (traffic, error)
}

// clientRun is what one closed-loop client measured.
type clientRun struct {
	lat               []time.Duration // as measured
	began             []time.Time
	traced, untraced  []time.Duration
	attempted, failed int
	gen               time.Duration
	activeUsers       int
	cached            int
	firstErr          error
	bodies            [][]byte // a sample of the bodies sent, for serve.decode_us
}

// drive runs one closed-loop client for window: it builds a request, sends
// it, waits for the decision, checks it, and only then builds the next. With
// a recorder, requests are traced in alternate blocks of eight, so that traced
// and untraced requests see the same mix of request kinds.
func drive(ctx context.Context, tr traffic, c *caller, cal *calibrator, client int, window time.Duration, rec *recorder) clientRun {
	var run clientRun
	start := time.Now()
	for i := 0; time.Since(start) < window; i++ {
		genStart := time.Now()
		rq, err := tr.next(client)
		if err != nil {
			// The generator failing is the benchmark failing, loudly.
			run.attempted++
			run.failed++
			run.firstErr = err
			return run
		}
		run.gen += time.Since(genStart)
		tracing := rec != nil && i/8%2 == 0
		if rec != nil {
			rec.req.Store(int64(i))
			rec.on.Store(tracing)
		}
		t0 := time.Now()
		resp, lat, err := c.post(ctx, rq)
		cal.tick()
		if tracing {
			rec.add(spanClient, t0, t0.Add(lat))
			rec.on.Store(false)
		}
		run.attempted++
		if err == nil && !sound(resp.Remote, resp.LocalWork, resp.RemoteWork, rq.weight, rq.nodes) {
			err = fmt.Errorf("%s: unsound decision: local %v + remote %v != %v", rq.path, resp.LocalWork, resp.RemoteWork, rq.weight)
		}
		if err != nil {
			run.failed++
			if run.firstErr == nil {
				run.firstErr = err
			}
			if ctx.Err() != nil {
				return run
			}
			continue
		}
		tr.done(rq, resp)
		run.lat = append(run.lat, lat)
		run.began = append(run.began, t0)
		run.activeUsers += resp.ActiveUsers
		if resp.Cached {
			run.cached++
		}
		if rec != nil {
			if tracing {
				run.traced = append(run.traced, lat)
			} else {
				run.untraced = append(run.untraced, lat)
			}
			if len(run.bodies) < 128 {
				run.bodies = append(run.bodies, rq.body)
			}
		}
	}
	return run
}

// runServing runs a serving workload.
func runServing(ctx context.Context, sp servSpec, env env) (*outcome, error) {
	out := &outcome{values: make(map[string]float64)}
	var rec *recorder
	n := clients()
	if env.traced {
		// One client, so spans nest by time.
		rec, n = newRecorder(), 1
	}

	// Set-up is everything before the first measured request: booting the
	// stack and making the workload's corpus resident. It runs servingSetups
	// times; the last stack is the one measured.
	var (
		st     *stack
		tr     traffic
		setups = make([]float64, servingSetups)
	)
	cals := make([]*calibrator, n)
	for i := range cals {
		cals[i] = newCalibrator()
	}
	for i := range setups {
		if st != nil {
			st.close(ctx)
		}
		var err error
		setups[i], err = cals[0].timeSetup(func() error {
			var err error
			if tr, err = sp.newTraffic(env.seed, n); err != nil {
				return err
			}
			if st, err = bootStack(ctx, filepath.Join(env.outDir, "tmp"), sp.fleet, rec); err != nil {
				return err
			}
			c := newCaller(st.url)
			defer c.close()
			if err := tr.warm(ctx, c); err != nil {
				st.close(ctx)
				return fmt.Errorf("warm: %w", err)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	defer st.close(ctx)

	callers := make([]*caller, n)
	for i := range callers {
		callers[i] = newCaller(st.url)
		defer callers[i].close()
	}
	g := newGate()
	if err := tr.verify(ctx, callers[0], g); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}

	round := func(window time.Duration, rec *recorder) []clientRun {
		runs := make([]clientRun, n)
		var wg sync.WaitGroup
		for i := range runs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runs[i] = drive(ctx, tr, callers[i], cals[i], i, window, rec)
			}(i)
		}
		wg.Wait()
		return runs
	}
	round(warmup(env.window), nil) // the warm-up leaves no spans
	// mutate_chain's deltas are kept so the traced pass can replay them.
	mt, mutates := tr.(*mutateTraffic)
	if mutates && env.traced {
		mt.recording = true
	}
	before, err := st.tally(ctx, callers[0])
	if err != nil {
		return nil, err
	}
	harness0 := 0.0 // CPU time the harness itself has used: the kernel runs so far
	for _, c := range cals {
		harness0 += c.kernelSeconds()
	}
	a0, cpu0, windowStart := heapAllocBytes(), cpuSeconds(), time.Now()
	runs := round(env.window, rec)
	elapsed := time.Since(windowStart)
	a1, cpu := heapAllocBytes(), cpuSeconds()-cpu0
	after, err := st.tally(ctx, callers[0])
	if err != nil {
		return nil, err
	}

	// How much of their waiting the clients spent waiting for the CPU.
	harness, waited := -harness0, 0.0
	for i, r := range runs {
		harness += r.gen.Seconds() + cals[i].kernelSeconds()
		for _, d := range r.lat {
			waited += d.Seconds()
		}
	}
	computing := computingShare(cpu, harness, waited)
	out.computing = computing

	var (
		all         clientRun
		ref         []time.Duration // all.lat at reference speed
		throughput  float64
		gen         time.Duration
		activeUsers int
	)
	for i, r := range runs {
		out.attempted += r.attempted
		out.failed += r.failed
		if r.firstErr != nil && out.note == "" {
			out.note = r.firstErr.Error()
		}
		all.lat = append(all.lat, r.lat...)
		all.traced = append(all.traced, r.traced...)
		all.untraced = append(all.untraced, r.untraced...)
		all.bodies = append(all.bodies, r.bodies...)
		all.cached += r.cached
		activeUsers += r.activeUsers
		gen += r.gen
		var busy time.Duration
		for k, d := range r.lat {
			d = cals[i].atReference(r.began[k], d, computing)
			ref = append(ref, d)
			busy += d
		}
		// Requests answered per second this client waited on the system.
		throughput += ratio(float64(len(r.lat)), busy.Seconds())
	}
	if g.mismatches > 0 {
		out.note = g.firstDiff
	}
	out.correct = g.mismatches == 0 && out.failed == 0
	out.digest = g.digest()
	out.samples = len(all.lat)
	ok := float64(len(all.lat))
	sorted := msSorted(all.lat)
	out.raw(sorted, cals...)

	if !env.traced {
		out.endToEnd(msSorted(ref), throughput, ratio(float64(a1-a0)/1024, ok), setups)
		return out, nil
	}

	v := out.values
	delta := func(k string) float64 { return after[k] - before[k] }
	for _, k := range []string{"serve.cache_evictions", "serve.rounds", "serve.fused_rounds", "serve.deduped",
		"serve.shed", "serve.delta_solves", "serve.cold_fallbacks", "serve.lanczos_iters_saved",
		"durable.appends", "durable.bytes", "durable.fsyncs", "router.failovers", "router.hedges"} {
		v[k] = delta(k)
	}
	v["serve.cache_hit_ratio"] = ratio(delta("hits"), delta("arrivals"))
	v["serve.body_hit_ratio"] = ratio(delta("body_hits"), delta("arrivals"))
	v["serve.users_per_round"] = ratio(delta("users"), delta("serve.rounds"))
	v["serve.active_users_mean"] = ratio(float64(activeUsers), ok)
	v["router.ident_hit_ratio"] = ratio(delta("ident_hits"), delta("ident_hits")+delta("ident_misses"))
	if sp.fleet {
		v["router.affinity_ratio"] = ratio(float64(all.cached), ok)
	}

	link(rec.spans)
	durUs, selfUs := spanMeans(rec.spans)
	v["serve.handler_us"] = durUs[spanServe]
	v["durable.append_us"] = durUs[spanAppend]
	v["router.handler_us"] = durUs[spanRouter]
	v["router.self_us"] = selfUs[spanRouter]
	v["client.transport_us"] = selfUs[spanClient]
	var decode time.Duration
	for _, body := range all.bodies {
		start := time.Now()
		if err := tr.decode(body); err != nil {
			return nil, fmt.Errorf("decode replay: %w", err)
		}
		decode += time.Since(start)
	}
	v["serve.decode_us"] = ratio(us(decode), float64(len(all.bodies)))
	if mutates {
		if err := mt.replay(ctx, v); err != nil {
			return nil, fmt.Errorf("delta replay: %w", err)
		}
	}
	out.clientDiagnostics(sorted)
	v["client.loadgen_busy_ratio"] = ratio(gen.Seconds(), elapsed.Seconds()*float64(n))
	tp50, _ := percentile(msSorted(all.traced), 0.50)
	up50, _ := percentile(msSorted(all.untraced), 0.50)
	v["trace.overhead_ratio"] = ratio(tp50, up50)
	out.spans, out.dropped = rec.spans, rec.dropped
	return out, nil
}

// replayDeltas is how many recorded deltas the offline replay re-runs.
const replayDeltas = 64

// replay re-runs the deltas the traced window sent down lineage 0 against an
// offline session, timing each public stage of the incremental path on its
// own: Delta.Apply, CSR.Patch, incremental LPA, then Session.SolveDelta.
func (tr *mutateTraffic) replay(ctx context.Context, v map[string]float64) error {
	if tr.recordedBase == nil || len(tr.recorded) == 0 {
		return errors.New("no deltas were recorded")
	}
	deltas := tr.recorded
	if len(deltas) > replayDeltas {
		deltas = deltas[:replayDeltas]
	}
	sess := core.NewSession(core.Options{})
	users := []core.UserInput{{}}
	// An empty delta takes the cold path, which captures the state the
	// first real delta patches.
	g, _, _, err := sess.SolveDelta(ctx, tr.recordedBase, &graph.Delta{}, users, core.DeltaOptions{})
	if err != nil {
		return err
	}
	lopts := lpa.Options{Workers: runtime.GOMAXPROCS(0)}
	var apply, patch, incremental, solve, patchTime time.Duration
	var dirty int
	var touched float64
	for _, d := range deltas {
		clone := g.Clone()
		start := time.Now()
		if err := d.Apply(clone); err != nil {
			return err
		}
		apply += time.Since(start)

		view := g.Compile()
		prev, err := lpa.CompressCSR(view, lopts)
		if err != nil {
			return err
		}
		start = time.Now()
		patched, info, err := view.Patch(d)
		if err != nil {
			return err
		}
		patch += time.Since(start)
		start = time.Now()
		if _, err := lpa.CompressCSRIncremental(patched, lopts, prev, info.OldCompOf); err != nil {
			return err
		}
		incremental += time.Since(start)

		start = time.Now()
		next, _, ds, err := sess.SolveDelta(ctx, g, d, users, core.DeltaOptions{})
		if err != nil {
			return err
		}
		solve += time.Since(start)
		patchTime += ds.PatchTime
		dirty += ds.DirtyComponents
		touched += ds.TouchedFraction
		g = next
	}
	n := float64(len(deltas))
	v["graph.delta_apply_us"] = us(apply) / n
	v["graph.patch_us"] = us(patch) / n
	v["lpa.incremental_us"] = us(incremental) / n
	v["core.solve_delta_us"] = us(solve) / n
	v["core.delta_patch_us"] = us(patchTime) / n
	v["core.dirty_components_mean"] = float64(dirty) / n
	v["core.touched_fraction_mean"] = touched / n
	return nil
}
