package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
)

// nopResponseWriter discards the response body so the handler benchmarks
// measure the serving hot path (decode → key → cache/singleflight → batch)
// rather than httptest.ResponseRecorder's buffer growth.
type nopResponseWriter struct {
	h      http.Header
	status int
}

func (w *nopResponseWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}

func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

func (w *nopResponseWriter) WriteHeader(status int) { w.status = status }

// postDirect drives handleSolve in-process: no sockets, no recorder buffer,
// so contention between parallel callers is the dominant shared cost.
func postDirect(s *Server, body []byte, w *nopResponseWriter, ctx context.Context) int {
	w.status = http.StatusOK
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Body = io.NopCloser(bytes.NewReader(body))
	s.handleSolve(w, req.WithContext(ctx))
	return w.status
}

// BenchmarkHandleParallel measures handler throughput under b.RunParallel
// across the three serving regimes this package optimises for:
//
//   - hit: every request is a warm solution-cache hit (the common case for
//     repeat graphs): two cache lookups under their locks and lock-free
//     stats, the path most sensitive to lock contention.
//   - miss: requests cycle many distinct graphs through a small cache, so
//     most of them take the full singleflight → queue → batch → solve path.
//   - dedupstorm: parallel callers hammer two alternating keys through a
//     one-entry cache, so every round mixes misses with live singleflight
//     followers (the dedup bookkeeping path).
//
// Run with -cpu 2,8 to see how the one-lock tables scale (DESIGN.md §10).
func BenchmarkHandleParallel(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		s := newTestServer(b, Config{})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Start(ctx)
		body := solveBody(b, testGraph(b, 0))
		w := &nopResponseWriter{}
		if st := postDirect(s, body, w, ctx); st != http.StatusOK {
			b.Fatalf("warm request: status %d", st)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := &nopResponseWriter{}
			for pb.Next() {
				if st := postDirect(s, body, w, ctx); st != http.StatusOK {
					b.Fatalf("status %d", st)
				}
			}
		})
		b.StopTimer()
		st := s.Stats()
		if st.Cache.Hits == 0 {
			b.Fatal("hit benchmark never hit the cache")
		}
	})

	b.Run("miss", func(b *testing.B) {
		// 64 distinct graphs through a 16-entry cache: ~75% of arrivals
		// miss and exercise admission, the queue, and batch dispatch.
		s := newTestServer(b, Config{CacheSize: 16, BatchWait: 100 * time.Microsecond})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Start(ctx)
		bodies := make([][]byte, 64)
		for i := range bodies {
			bodies[i] = solveBody(b, testGraph(b, i))
		}
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := &nopResponseWriter{}
			for pb.Next() {
				body := bodies[next.Add(1)%uint64(len(bodies))]
				st := postDirect(s, body, w, ctx)
				if st != http.StatusOK && st != http.StatusTooManyRequests {
					b.Fatalf("status %d", st)
				}
			}
		})
	})

	b.Run("dedupstorm", func(b *testing.B) {
		// A one-entry cache and two alternating bodies: each put evicts the
		// other key, so parallel callers keep colliding on in-flight cells.
		s := newTestServer(b, Config{CacheSize: 1, BatchWait: 100 * time.Microsecond})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Start(ctx)
		bodies := [2][]byte{solveBody(b, testGraph(b, 0)), solveBody(b, testGraph(b, 1))}
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			w := &nopResponseWriter{}
			for pb.Next() {
				body := bodies[next.Add(1)%2]
				st := postDirect(s, body, w, ctx)
				if st != http.StatusOK && st != http.StatusTooManyRequests {
					b.Fatalf("status %d", st)
				}
			}
		})
	})
}

// cacheHitAllocBudget caps allocations for one warm cache-hit request
// through handleSolve (request construction included). The hit path must
// stay flat as the serving layers evolve; raising this number needs a
// justification in the PR that does it. The body-digest fast path (no
// JSON decode, no graph hashing, pre-rendered response bytes) measures
// ~15; the budget leaves headroom for harness noise only.
const cacheHitAllocBudget = 24

func TestCacheHitAllocBudget(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	body := solveBody(t, testGraph(t, 0))
	w := &nopResponseWriter{}
	if st := postDirect(s, body, w, ctx); st != http.StatusOK {
		t.Fatalf("warm request: status %d", st)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if st := postDirect(s, body, w, ctx); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	})
	if allocs > cacheHitAllocBudget {
		t.Fatalf("cache-hit path allocates %.1f objects per request, budget %d",
			allocs, cacheHitAllocBudget)
	}
	t.Logf("cache-hit allocations: %.1f (budget %d)", allocs, cacheHitAllocBudget)
}

// missAllocBudgetKB caps the heap bytes one cold /v1/solve of a never-seen
// n = 100 graph (480 edges, the benchmark's serve_miss body) allocates inside
// the server, journal on: body scan, graph build, one binary encode, intern,
// round, solve, journal record, response. Reading the body once measures
// ≈ 104 KB (218 KB when encoding/json walked it twice more, rows grew by
// append and the record was encoded a second time). Raising it needs a
// justification in the PR that does it.
const missAllocBudgetKB = 125

// nopJournal accepts every record: the budget covers building a journal
// payload, not a disk.
type nopJournal struct{}

func (nopJournal) Append([]byte) (uint64, error) { return 0, nil }
func (nopJournal) Applied(uint64)                {}

// missBody is the i-th never-seen serve_miss-shaped request body.
func missBody(t testing.TB, i int) []byte {
	t.Helper()
	g, err := netgen.Generate(netgen.Config{Nodes: 100, Edges: 480, Components: 4, Seed: int64(1000 + i)})
	if err != nil {
		t.Fatal(err)
	}
	return solveBody(t, g)
}

func TestMissAllocBytesBudget(t *testing.T) {
	s := newTestServer(t, Config{Journal: nopJournal{}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	const requests = 64
	bodies := make([][]byte, requests+1)
	for i := range bodies {
		bodies[i] = missBody(t, i)
	}
	w := &nopResponseWriter{}
	// The first request faults the path in and fills the solver's pools.
	if st := postDirect(s, bodies[requests], w, ctx); st != http.StatusOK {
		t.Fatalf("warm request: status %d", st)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	heapBytes := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	// No collection inside the window, as in TestMutateAllocBytesBudget.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := heapBytes()
	for _, body := range bodies[:requests] {
		if st := postDirect(s, body, w, ctx); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	}
	perRequestKB := float64(heapBytes()-before) / requests / 1024
	if got := s.Stats().Cache.Misses; got != requests+1 {
		t.Fatalf("%d of %d requests missed the cache", got, requests+1)
	}
	if raceBuild() {
		t.Skipf("cold solve: %.0f KB per request under -race; the budget is for regular builds", perRequestKB)
	}
	if perRequestKB > missAllocBudgetKB {
		t.Fatalf("a cold n=100 solve allocates %.0f KB in the server, budget %d KB", perRequestKB, missAllocBudgetKB)
	}
	t.Logf("cold n=100 solve: %.0f KB per request (budget %d KB)", perRequestKB, missAllocBudgetKB)
}

// BenchmarkSolveRequestDecodeSpeedup measures DecodeSolveBody (the request
// scanner, graph built in place) against the decodeStrict path it falls back
// to (encoding/json delimits the body, walks it to the graph member, delimits
// that, and hands it to Graph.UnmarshalJSON) on the same bodies, alternating
// inside one process so host drift hits both sides alike. request_decode_x is
// decodeStrict time over scanner time; scripts/perf_gate.sh floors it.
func BenchmarkSolveRequestDecodeSpeedup(b *testing.B) {
	table, err := netgen.TableIConfig(3, 1)
	if err != nil {
		b.Fatal(err)
	}
	big, err := netgen.Generate(table)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		body []byte
	}{{"n=100", missBody(b, 0)}, {"n=2000", solveBody(b, big)}} {
		b.Run(bc.name, func(b *testing.B) {
			if !new(SolveRequest).scan(bc.body) {
				b.Fatal("scanner does not take the benchmark body")
			}
			var strict, scan time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				var req SolveRequest
				err := decodeStrict(bc.body, &req)
				if err == nil {
					err = req.check(DecodeLimits{})
				}
				if err != nil {
					b.Fatal(err)
				}
				strict += time.Since(start)
				start = time.Now()
				if _, err := DecodeSolveBody(bc.body, DecodeLimits{}); err != nil {
					b.Fatal(err)
				}
				scan += time.Since(start)
			}
			b.ReportMetric(strict.Seconds()/scan.Seconds(), "request_decode_x")
			b.ReportMetric(float64(scan.Nanoseconds())/float64(b.N), "scan_ns")
		})
	}
}

// mutateAllocBudgetKB caps the heap bytes one incremental /v1/mutate request
// allocates inside the server on a Table I n = 2000 graph (≈ 95 edge edits in
// one or two of its ten components): measured 340 KB, plus 10 %. What is
// left is the work that is O(n) by shape — the clone's node table, the
// patched view's index arrays, Placement.Remote's map, the remote list — and
// the dirty components; a clean component's compression, cuts and templates
// are carried, not rebuilt. Raising it needs a justification in the PR that
// does it.
const mutateAllocBudgetKB = 375

// captureWriter keeps the last response body in a reused buffer.
type captureWriter struct {
	nopResponseWriter
	buf bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

// chainShapedDelta draws a mutate_chain-shaped delta against g: about 1 % of
// the edges, all inside one or two components, half re-weighted, a quarter
// removed and a quarter added.
func chainShapedDelta(rng *rand.Rand, g *graph.Graph) *graph.Delta {
	view := g.Compile()
	comps := view.Components()
	compOf := make([]int32, view.NumNodes())
	for ci, members := range comps {
		for _, i := range members {
			compOf[i] = int32(ci)
		}
	}
	in := map[int32]bool{int32(rng.Intn(len(comps))): true}
	if rng.Intn(2) == 1 {
		in[int32(rng.Intn(len(comps)))] = true
	}
	var members []graph.NodeID
	var edges []graph.EdgePair
	for i := int32(0); i < int32(view.NumNodes()); i++ {
		if !in[compOf[i]] {
			continue
		}
		members = append(members, view.IDOf(i))
		tgt, _ := view.Adj(i)
		for _, v := range tgt {
			if v > i {
				edges = append(edges, graph.EdgePair{U: view.IDOf(i), V: view.IDOf(v)})
			}
		}
	}
	rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
	ops := g.NumEdges() / 100
	d := &graph.Delta{}
	for k, e := range edges[:min(len(edges), 3*ops/4)] {
		if k%3 == 2 {
			d.RemoveEdges = append(d.RemoveEdges, e)
		} else {
			d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: e.U, V: e.V, Weight: 1 + 99*rng.Float64()})
		}
	}
	added := map[graph.EdgePair]bool{}
	for k, try := 0, 0; k < ops/4 && try < 64*ops; try++ {
		u, v := members[rng.Intn(len(members))], members[rng.Intn(len(members))]
		if u > v {
			u, v = v, u
		}
		pair := graph.EdgePair{U: u, V: v}
		if _, exists := g.EdgeWeight(u, v); u == v || exists || added[pair] ||
			compOf[view.IndexOf(u)] != compOf[view.IndexOf(v)] {
			continue
		}
		added[pair] = true
		d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: u, V: v, Weight: 1 + 99*rng.Float64()})
		k++
	}
	return d
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

func TestMutateAllocBytesBudget(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	cfg, err := netgen.TableIConfig(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := postDirect(s, solveBody(t, mirror), &nopResponseWriter{}, ctx); st != http.StatusOK {
		t.Fatalf("prime solve: status %d", st)
	}

	rng := rand.New(rand.NewSource(1))
	head := fingerprintOf(t, mirror)
	w := &captureWriter{}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	heapBytes := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	// mutate posts the next delta of the chain and reports the heap bytes
	// allocated while the handler ran; building the request is not counted.
	mutate := func() (MutateResponse, uint64) {
		d := chainShapedDelta(rng, mirror)
		if err := d.Apply(mirror); err != nil {
			t.Fatal(err)
		}
		body := mutateBody(t, head, d)
		req := httptest.NewRequest(http.MethodPost, "/v1/mutate", nil).WithContext(ctx)
		req.Body = io.NopCloser(bytes.NewReader(body))
		w.buf.Reset()
		w.status = http.StatusOK
		before := heapBytes()
		s.handleMutate(w, req)
		spent := heapBytes() - before
		if w.status != http.StatusOK {
			t.Fatalf("mutate: status %d: %s", w.status, w.buf.Bytes())
		}
		var resp MutateResponse
		if err := json.Unmarshal(w.buf.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		head = resp.Graph
		return resp, spent
	}
	// A solve-primed base is patchable: the first mutate is incremental too.
	if resp, _ := mutate(); !resp.Incremental || resp.ColdFallback {
		t.Fatalf("first mutate: incremental %v cold_fallback %v (%s)", resp.Incremental, resp.ColdFallback, resp.FallbackReason)
	}
	// No collection inside the window: each one empties the sync.Pools the
	// path draws its large buffers from, and how many fall in 64 requests is
	// the collector's business, not the handler's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const requests = 64
	var total uint64
	for i := 0; i < requests; i++ {
		resp, spent := mutate()
		if !resp.Incremental || resp.ColdFallback {
			t.Fatalf("mutate %d: incremental %v cold_fallback %v (%s)", i, resp.Incremental, resp.ColdFallback, resp.FallbackReason)
		}
		total += spent
	}
	perRequestKB := float64(total) / requests / 1024
	if raceBuild() {
		// The race detector makes sync.Pool drop a quarter of what is put
		// back, so the solver's pooled scratch is re-allocated at random.
		t.Skipf("incremental mutate: %.0f KB per request under -race; the budget is for regular builds", perRequestKB)
	}
	if perRequestKB > mutateAllocBudgetKB {
		t.Fatalf("an incremental mutate allocates %.0f KB in the server, budget %d KB", perRequestKB, mutateAllocBudgetKB)
	}
	t.Logf("incremental mutate: %.0f KB per request (budget %d KB)", perRequestKB, mutateAllocBudgetKB)
}
