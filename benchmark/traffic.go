package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"copmecs/internal/graph"
	"copmecs/internal/netgen"
	"copmecs/internal/serve"
)

// Request sizes of the serving workloads.
const (
	corpusGraphs   = 64 // serve_hit, fleet_hit: pre-solved graphs
	verifyRequests = 32 // every serving workload's correctness gate
	lineages       = 8  // mutate_chain: pre-solved bases
	smallNodes     = 100
	smallEdges     = 480
	smallComps     = 4
	baseTableIRow  = 3 // mutate_chain bases: Table I n=2000, 9578 edges
	// touchedShare is the share of a lineage's edges one delta touches.
	touchedShare = 0.01
	// spareStream is the request stream warm-up and the correctness gate
	// draw from. No measuring client has this index, whatever their number,
	// so decision_digest depends on the workload and the seed alone.
	spareStream = 2
)

func smallConfig(graphSeed int64) netgen.Config {
	return netgen.Config{Nodes: smallNodes, Edges: smallEdges, Components: smallComps, Seed: graphSeed}
}

// solveBody is the canonical /v1/solve body of g.
func solveBody(g *graph.Graph) ([]byte, error) {
	return json.Marshal(serve.SolveRequest{Graph: g})
}

// respaced returns body with a run of 64 spaces and tabs spelling n after
// its opening brace: the same request in an encoding no cache has seen, so
// the server must decode and fingerprint it.
func respaced(body []byte, n uint64) []byte {
	out := make([]byte, 0, len(body)+64)
	out = append(out, body[0])
	for bit := 0; bit < 64; bit++ {
		if n>>bit&1 == 1 {
			out = append(out, '\t')
		} else {
			out = append(out, ' ')
		}
	}
	return append(out, body[1:]...)
}

// decodeSolve runs a /v1/solve body through the server's request decoder.
func decodeSolve(body []byte) error {
	_, err := serve.DecodeSolveRequest(bytes.NewReader(body), serve.DecodeLimits{})
	return err
}

func solveRequest(g *graph.Graph, body []byte) request {
	return request{path: "/v1/solve", body: body, nodes: g.NumNodes(), weight: g.TotalNodeWeight()}
}

// checkSolve posts rq and matches the reply against the offline solve of g.
func checkSolve(ctx context.Context, c *caller, gt *gate, what string, rq request, g *graph.Graph, wantCached bool) error {
	resp, _, err := c.post(ctx, rq)
	if err != nil {
		return err
	}
	if resp.Cached != wantCached {
		return fmt.Errorf("%s: cached = %v, want %v", what, resp.Cached, wantCached)
	}
	want, err := offlineDecision(ctx, g)
	if err != nil {
		return err
	}
	gt.match(what, responseDecision(resp.Graph, &resp.SolveResponse), want)
	return nil
}

// hitTraffic is the serve_hit and fleet_hit stream: a corpus of pre-solved
// graphs, each request either the byte-identical body (body-digest fast
// path) or a respaced one (decode, fingerprint, solution-cache hit). Four in
// five are byte-identical, so p50_ms sits inside the fast path (its 62nd
// percentile) and p90_ms inside the decode path (its median); an even split
// would put the median in the gap between the two, where it jumps from run
// to run.
type hitTraffic struct {
	seed   int64
	graphs []*graph.Graph
	bodies [][]byte
	sent   []uint64 // per client
}

// hitCycle is the length of the stream's cycle: one request of it is respaced.
const hitCycle = 5

func newHitTraffic(seed int64, _ int) (traffic, error) {
	tr := &hitTraffic{seed: seed, sent: make([]uint64, spareStream+1)}
	for i := 0; i < corpusGraphs; i++ {
		g, err := netgen.Generate(smallConfig(graphSeed(seed, i)))
		if err != nil {
			return nil, err
		}
		body, err := solveBody(g)
		if err != nil {
			return nil, err
		}
		tr.graphs = append(tr.graphs, g)
		tr.bodies = append(tr.bodies, body)
	}
	return tr, nil
}

func (tr *hitTraffic) warm(ctx context.Context, c *caller) error {
	for i, g := range tr.graphs {
		if _, _, err := c.post(ctx, solveRequest(g, tr.bodies[i])); err != nil {
			return err
		}
	}
	return nil
}

// mix64 is the splitmix64 finaliser: a fixed scrambling of x.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// at is request i of client's stream and the corpus graph it carries. One
// request in every hitCycle is respaced, at a place drawn by hashing (seed,
// client, cycle), as the graph is. A fixed place lets two clients fall into
// step, so that for a whole run fast requests either always or never share
// the cores with the other client's decode, and the median moves with it.
func (tr *hitTraffic) at(client int, i uint64) (request, int) {
	stream := mix64(uint64(tr.seed)) ^ uint64(client)<<48
	k := int(mix64(stream^i) % corpusGraphs)
	body := tr.bodies[k]
	if i%hitCycle == mix64(stream^i/hitCycle)>>32%hitCycle {
		body = respaced(body, uint64(client)<<48|i)
	}
	return solveRequest(tr.graphs[k], body), k
}

func (tr *hitTraffic) next(client int) (request, error) {
	rq, _ := tr.at(client, tr.sent[client])
	tr.sent[client]++
	return rq, nil
}

func (tr *hitTraffic) done(request, *serve.MutateResponse) {}

func (tr *hitTraffic) decode(body []byte) error { return decodeSolve(body) }

func (tr *hitTraffic) verify(ctx context.Context, c *caller, gt *gate) error {
	for i := uint64(0); i < verifyRequests; i++ {
		rq, k := tr.at(spareStream, i)
		// A freshly generated copy: the oracle shares nothing with the run.
		g, err := netgen.Generate(smallConfig(graphSeed(tr.seed, k)))
		if err != nil {
			return err
		}
		if err := checkSolve(ctx, c, gt, fmt.Sprintf("corpus graph %d", k), rq, g, true); err != nil {
			return err
		}
	}
	return nil
}

// missTraffic is the serve_miss stream: every request a graph the server has
// never seen, so fingerprints never repeat within a run.
type missTraffic struct {
	seed int64
	sent []int // per client
}

func newMissTraffic(seed int64, _ int) (traffic, error) {
	return &missTraffic{seed: seed, sent: make([]int, spareStream+1)}, nil
}

// graphFor is the i-th graph of client's stream. Streams are spaced far
// enough apart that no two requests of a run share a generator seed.
func (tr *missTraffic) graphFor(client, i int) (*graph.Graph, error) {
	return netgen.Generate(smallConfig(graphSeed(tr.seed, (client+1)<<20+i)))
}

func (tr *missTraffic) next(client int) (request, error) {
	g, err := tr.graphFor(client, tr.sent[client])
	if err != nil {
		return request{}, err
	}
	tr.sent[client]++
	body, err := solveBody(g)
	if err != nil {
		return request{}, err
	}
	return solveRequest(g, body), nil
}

func (tr *missTraffic) done(request, *serve.MutateResponse) {}

func (tr *missTraffic) decode(body []byte) error { return decodeSolve(body) }

// warm sends a few throwaway misses so the first measured request does not
// pay for faulting the solve path in.
func (tr *missTraffic) warm(ctx context.Context, c *caller) error {
	for i := 0; i < 8; i++ {
		rq, err := tr.next(spareStream)
		if err != nil {
			return err
		}
		if _, _, err := c.post(ctx, rq); err != nil {
			return err
		}
	}
	return nil
}

func (tr *missTraffic) verify(ctx context.Context, c *caller, gt *gate) error {
	for i := 0; i < verifyRequests; i++ {
		n := tr.sent[spareStream]
		rq, err := tr.next(spareStream)
		if err != nil {
			return err
		}
		g, err := tr.graphFor(spareStream, n)
		if err != nil {
			return err
		}
		if err := checkSolve(ctx, c, gt, fmt.Sprintf("fresh graph %d", n), rq, g, false); err != nil {
			return err
		}
	}
	return nil
}

// lineage is one chain of mutations: the client-side mirror of the graph the
// server holds under head, plus what delta generation needs.
type lineage struct {
	rng    *rand.Rand
	mirror *graph.Graph
	head   string           // fingerprint of the server's newest graph
	edges  []graph.EdgePair // the mirror's current edge set
	comps  [][]graph.NodeID // the base graph's components
	compOf map[graph.NodeID]int
	nodes  int
	weight float64
}

// mutateTraffic is the mutate_chain stream: each client chains POST
// /v1/mutate deltas down its own lineages. A lineage belongs to one client,
// so it has one request in flight at a time.
type mutateTraffic struct {
	lineages []*lineage
	turn     []int // per client: which of its lineages goes next

	recording    bool
	recordedBase *graph.Graph
	recorded     []*graph.Delta
}

func newMutateTraffic(seed int64, clients int) (traffic, error) {
	tr := &mutateTraffic{turn: make([]int, clients)}
	for i := 0; i < lineages; i++ {
		cfg, err := netgen.TableIConfig(baseTableIRow, graphSeed(seed, i))
		if err != nil {
			return nil, err
		}
		g, err := netgen.Generate(cfg)
		if err != nil {
			return nil, err
		}
		ln := &lineage{
			rng:    rand.New(rand.NewSource(graphSeed(seed, 1<<20+i))),
			mirror: g, nodes: g.NumNodes(), weight: g.TotalNodeWeight(),
			compOf: make(map[graph.NodeID]int, g.NumNodes()),
		}
		for _, e := range g.Edges() {
			ln.edges = append(ln.edges, graph.EdgePair{U: e.U, V: e.V})
		}
		view := g.Compile()
		for ci, comp := range view.Components() {
			ids := make([]graph.NodeID, len(comp))
			for k, idx := range comp {
				ids[k] = view.IDOf(idx)
				ln.compOf[ids[k]] = ci
			}
			ln.comps = append(ln.comps, ids)
		}
		tr.lineages = append(tr.lineages, ln)
	}
	return tr, nil
}

// weightIn draws an edge weight from the generator's default range.
func weightIn(rng *rand.Rand) float64 { return 1 + 99*rng.Float64() }

// delta builds the lineage's next mutation and applies it to the mirror: it
// touches about touchedShare of the edges inside one or two components, half
// of them re-weighted, a quarter removed and a quarter added. Weights come
// from the lineage's RNG, so no mutated graph repeats.
func (ln *lineage) delta() (*graph.Delta, error) {
	in := map[int]bool{ln.rng.Intn(len(ln.comps)): true}
	if ln.rng.Intn(2) == 1 {
		in[ln.rng.Intn(len(ln.comps))] = true
	}
	ops := int(touchedShare * float64(len(ln.edges)))
	if ops < 4 {
		ops = 4
	}
	d := &graph.Delta{}
	picked := make(map[int]bool) // indices into edges this delta already uses
	var removed []int
	pick := func() (int, bool) {
		for try := 0; try < 64*len(ln.comps); try++ {
			i := ln.rng.Intn(len(ln.edges))
			if !picked[i] && in[ln.compOf[ln.edges[i].U]] {
				picked[i] = true
				return i, true
			}
		}
		return 0, false
	}
	for k := 0; k < ops/2; k++ {
		if i, ok := pick(); ok {
			e := ln.edges[i]
			d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: e.U, V: e.V, Weight: weightIn(ln.rng)})
		}
	}
	for k := 0; k < ops/4; k++ {
		if i, ok := pick(); ok {
			d.RemoveEdges = append(d.RemoveEdges, ln.edges[i])
			removed = append(removed, i)
		}
	}
	var members []graph.NodeID
	for ci := range in {
		members = append(members, ln.comps[ci]...)
	}
	// Map order must not leak into the request.
	sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
	added := make(map[graph.EdgePair]bool)
	for k, try := 0, 0; k < ops/4 && try < 64*ops; try++ {
		u, v := members[ln.rng.Intn(len(members))], members[ln.rng.Intn(len(members))]
		if u > v {
			u, v = v, u
		}
		pair := graph.EdgePair{U: u, V: v}
		if _, exists := ln.mirror.EdgeWeight(u, v); u == v || exists || added[pair] || ln.compOf[u] != ln.compOf[v] {
			continue
		}
		added[pair] = true
		d.SetEdges = append(d.SetEdges, graph.EdgeDelta{U: u, V: v, Weight: weightIn(ln.rng)})
		ln.edges = append(ln.edges, pair)
		k++
	}
	if err := d.Apply(ln.mirror); err != nil {
		return nil, err
	}
	// Drop the removed edges from the edge list, highest index first so the
	// swap-deletes do not disturb one another.
	sort.Ints(removed)
	for k := len(removed) - 1; k >= 0; k-- {
		i := removed[k]
		ln.edges[i] = ln.edges[len(ln.edges)-1]
		ln.edges = ln.edges[:len(ln.edges)-1]
	}
	return d, nil
}

// request builds lineage li's next mutation against its current head.
func (tr *mutateTraffic) request(li int) (request, error) {
	ln := tr.lineages[li]
	if li == 0 && tr.recording && tr.recordedBase == nil {
		tr.recordedBase = ln.mirror.Clone()
	}
	d, err := ln.delta()
	if err != nil {
		return request{}, err
	}
	if li == 0 && tr.recording {
		tr.recorded = append(tr.recorded, d)
	}
	body, err := json.Marshal(serve.MutateRequest{Base: ln.head, Delta: d})
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/mutate", body: body, nodes: ln.nodes, weight: ln.weight, lineage: li}, nil
}

// next hands client its lineages in turn: client c owns lineages c, c+n, ….
func (tr *mutateTraffic) next(client int) (request, error) {
	n := len(tr.turn)
	li := client + n*tr.turn[client]
	if li >= len(tr.lineages) {
		li, tr.turn[client] = client, 0
	}
	tr.turn[client]++
	return tr.request(li)
}

func (tr *mutateTraffic) done(rq request, resp *serve.MutateResponse) {
	tr.lineages[rq.lineage].head = resp.Graph
}

func (tr *mutateTraffic) decode(body []byte) error {
	_, err := serve.DecodeMutateRequest(bytes.NewReader(body), serve.DecodeLimits{})
	return err
}

// warm solves every base and sends each lineage one priming delta: the first
// mutation of a base has no captured pipeline state and solves cold, every
// later one patches.
func (tr *mutateTraffic) warm(ctx context.Context, c *caller) error {
	for li, ln := range tr.lineages {
		body, err := solveBody(ln.mirror)
		if err != nil {
			return err
		}
		resp, _, err := c.post(ctx, solveRequest(ln.mirror, body))
		if err != nil {
			return err
		}
		ln.head = resp.Graph
		rq, err := tr.request(li)
		if err != nil {
			return err
		}
		if resp, _, err = c.post(ctx, rq); err != nil {
			return err
		}
		tr.done(rq, resp)
	}
	return nil
}

func (tr *mutateTraffic) verify(ctx context.Context, c *caller, gt *gate) error {
	for i := 0; i < verifyRequests; i++ {
		li := i % len(tr.lineages)
		rq, err := tr.request(li)
		if err != nil {
			return err
		}
		resp, _, err := c.post(ctx, rq)
		if err != nil {
			return err
		}
		tr.done(rq, resp)
		if resp.Cached || resp.ColdFallback || !resp.Incremental {
			return fmt.Errorf("lineage %d: cached %v cold_fallback %v (%s) incremental %v; want an incremental solve",
				li, resp.Cached, resp.ColdFallback, resp.FallbackReason, resp.Incremental)
		}
		// The oracle: the delta applied to the mirror, solved cold on a copy
		// so the mirror itself never carries solver views.
		want, err := offlineDecision(ctx, tr.lineages[li].mirror.Clone())
		if err != nil {
			return err
		}
		gt.match(fmt.Sprintf("lineage %d delta %d", li, i), responseDecision(resp.Graph, &resp.SolveResponse), want)
	}
	return nil
}
