package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/mec"
)

// Solver errors.
var (
	// ErrNilGraph is returned when a user has no graph.
	ErrNilGraph = errors.New("core: user graph is nil")
)

// Options configures Solve. The zero value uses the spectral engine with
// compression and default LPA and MEC parameters.
type Options struct {
	// Engine is the minimum-cut engine (nil = SpectralEngine{}).
	Engine Engine
	// LPA tunes the compression stage. Its Workers is not read: Workers
	// below bounds the one pool that compresses and cuts.
	LPA lpa.Options
	// Params are the MEC system constants (zero value = mec.Defaults()).
	Params mec.Params
	// DisableCompression skips Algorithm 1 and cuts the raw component
	// sub-graphs (ablation; the paper's motivation for compressing is both
	// speed and avoiding cuts through highly coupled pairs).
	DisableCompression bool
	// DisableGreedy stops after the initial cut split (ablation: measures
	// what Algorithm 2's greedy pass adds over the raw minimum cuts).
	DisableGreedy bool
	// MaxParts caps the number of parts each compressed sub-graph is split
	// into. The paper bisects (2); values above 2 enable recursive
	// bisection — the "reduce the computational complexity / finer
	// placement" direction the paper's conclusion points to. 0 means 2.
	MaxParts int
	// Workers bounds the goroutines of a round's worker pool, which runs
	// each of its phases — compile a graph, compress and cut a component,
	// assemble a graph's templates, finish an item — unit by unit
	// (0 = GOMAXPROCS; 1 = serial, the Fig. 9 "without Spark" mode).
	Workers int
}

// normalised fills the defaults every entry point shares.
func (o Options) normalised() Options {
	if o.Engine == nil {
		o.Engine = SpectralEngine{}
	}
	if o.Params == (mec.Params{}) {
		o.Params = mec.Defaults()
	}
	if o.MaxParts < 2 {
		o.MaxParts = 2
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// UserInput is one user's workload.
type UserInput struct {
	// Graph is the user's offloadable function data-flow graph.
	Graph *graph.Graph
	// View optionally carries Graph's compiled (or patched) view, for a
	// caller that holds views: the solve runs over it and Graph may be nil.
	// A Session caches the pipeline under Graph when set, else under View.
	// A user given only a View gets a Placement whose Graph is nil, so its
	// Placement.State cannot be called: Solution.States holds that state.
	View *graph.CSR
	// FixedLocalWork is computation pinned to the device regardless of the
	// scheme (the unoffloadable functions callgraph.Extract strips).
	FixedLocalWork float64
	// DeviceCompute optionally overrides Params.DeviceCompute.
	DeviceCompute float64
	// Bandwidth optionally overrides Params.Bandwidth (heterogeneous radio
	// links; the paper assumes a uniform b).
	Bandwidth float64
	// PowerTransmit optionally overrides Params.PowerTransmit.
	PowerTransmit float64
}

// Part is one movable unit of Algorithm 2: a cut side of one compressed
// sub-graph of one user.
type Part struct {
	// User indexes the owning user.
	User int
	// Nodes are the original graph nodes in the part, sorted.
	Nodes []graph.NodeID
	// Work is the part's total computation amount.
	Work float64
	// Adj lists communication to every other part of the same sub-graph it
	// shares an edge with, ascending by Other: one entry for the other side
	// of a two-way split, up to MaxParts−1 for a multiway one.
	Adj []PartEdge
	// Remote reports the current placement (initially the cut split of
	// Algorithm 2: the heavier side of each sub-graph offloads, the lighter
	// side stays on the device; after Solve it is the final placement).
	Remote bool
	// InitialRemote records the pre-greedy placement for diagnostics.
	InitialRemote bool

	// idx carries Nodes as indices into the graph's view (aligned with
	// Nodes); the evaluator walks the view through it instead of re-deriving
	// indices from NodeIDs.
	idx []int32
}

// PartEdge is the communication between two parts of one sub-graph.
type PartEdge struct {
	// Other indexes the adjacent part (into the same parts slice).
	Other int
	// Weight is the total edge weight between the two parts.
	Weight float64
}

// Stats summarises a solve.
type Stats struct {
	EngineName       string
	Users            int
	Parts            int
	GreedyMoves      int
	GreedyIterations int
	NodesBefore      int
	NodesAfter       int
	EdgesBefore      int
	EdgesAfter       int
	// PipelineTime covers compression plus the cut stage (the part Fig. 9
	// parallelises); GreedyTime covers Algorithm 2's scheme generation.
	PipelineTime time.Duration
	GreedyTime   time.Duration
}

// Solution is the final offloading scheme.
type Solution struct {
	// Placements has one entry per user, aligned with the input. Each
	// carries its user's Graph, nil for a user given only a View.
	Placements []mec.Placement
	// States has one entry per user: the work split and cut weight the
	// evaluator read off the user's graph, bit for bit what the placement's
	// State method computes (FixedLocalWork, which Eval includes, is not part
	// of it).
	States []mec.UserState
	// Eval is the full model evaluation of the final scheme.
	Eval *mec.Evaluation
	// Parts exposes Algorithm 2's movable units and their placements.
	Parts []Part
	// InitialObjective is E + T of the pre-greedy cut split; comparing it
	// with Eval.Objective shows what the greedy pass earned.
	InitialObjective float64
	// Stats carries pipeline counters.
	Stats Stats
}

// Solve runs the full pipeline — compression, per-sub-graph minimum cut,
// greedy scheme generation — over all users simultaneously (the multi-user
// coupling is the shared edge-server capacity). ctx cancels the cut stage
// between bisections.
//
// Users frequently share a graph (a fleet running the same application — the
// regime of the paper's multi-user experiments). The pipeline output depends
// only on the graph, so it is computed once per distinct Graph (or View)
// pointer and instantiated per user. Graphs must not be mutated during Solve.
func Solve(ctx context.Context, users []UserInput, opts Options) (*Solution, error) {
	return solveOne(ctx, users, opts, nil)
}

// solveOne solves one population as a batch of one item.
func solveOne(ctx context.Context, users []UserInput, opts Options, cache *Session) (*Solution, error) {
	r := solveItems(ctx, []BatchItem{{Users: users}}, opts, cache, nil)[0]
	return r.Solution, r.Err
}

// solveItems is the implementation behind every entry point — Solve and
// Session.Solve are a batch of one item, SolveDelta a batch of one that
// stages its applied view. Every distinct graph the cache (nil for the
// package-level calls) cannot serve is staged: over the view of the Applied
// whose Graph it is, carrying that view's clean components, or else over its
// own freshly compiled view. All of them are pipelined in a single
// runPipeline pass; each item is then finished independently. Compiling,
// the pipeline's phases and finishing each spread their units — a graph, a
// component, a graph, an item — over the Options.Workers pool.
func solveItems(ctx context.Context, items []BatchItem, opts Options, cache *Session, applied []*Applied) []BatchResult {
	res := make([]BatchResult, len(items))
	if err := ctx.Err(); err != nil {
		for i := range res {
			res[i].Err = err
		}
		return res
	}
	opts = opts.normalised()

	// Per-item parameters and input checks; a failed item carries its error
	// and takes no further part in the round.
	params := make([]mec.Params, len(items))
	var live []int
	for i, it := range items {
		p := it.Params
		if p == (mec.Params{}) {
			p = opts.Params
		}
		if err := p.Validate(); err != nil {
			res[i].Err = fmt.Errorf("core: %w", err)
			continue
		}
		for ui, u := range it.Users {
			if u.Graph == nil && u.View == nil {
				res[i].Err = fmt.Errorf("%w: user %d", ErrNilGraph, ui)
				break
			}
		}
		if res[i].Err == nil {
			params[i] = p
			live = append(live, i)
		}
	}

	// Distinct graphs across the whole round, first-appearance order, split
	// by session-cache state; uncached holds each one's first user.
	pipelineStart := time.Now()
	round := make(map[any]*graphPipeline)
	var uncached []UserInput
	for _, i := range live {
		for _, u := range items[i].Users {
			k := u.key()
			if _, ok := round[k]; ok {
				continue
			}
			gp := cache.lookup(k)
			round[k] = gp
			if gp == nil {
				uncached = append(uncached, u)
			}
		}
	}
	if len(uncached) > 0 {
		// Stage, one unit per uncached graph; no unit fails.
		staged := make([]stagedView, len(uncached))
		_ = parallelFor(opts.Workers, len(uncached), func(_, k int) error {
			staged[k] = stage(uncached[k], applied)
			return nil
		})
		out, err := runPipeline(ctx, opts, staged)
		if err != nil {
			// One graph's failure must not poison the round: every live
			// item retries alone and succeeds or fails exactly as its own
			// solve would.
			for _, i := range live {
				if len(live) == 1 {
					res[i].Err = err
				} else {
					res[i] = solveItems(ctx, items[i:i+1], opts, cache, applied)[0]
				}
			}
			return res
		}
		for k, u := range uncached {
			round[u.key()] = out[k]
			cache.store(u.key(), out[k])
		}
	}
	pipelineTime := time.Since(pipelineStart)

	// Finish, one unit per live item, each worker owning the evaluator's
	// membership scratch, sized for the largest graph it will walk. A unit's
	// error is its item's result, so the pool itself sees none.
	maxN := 0
	for _, gp := range round {
		maxN = max(maxN, gp.view.NumNodes())
	}
	marks := make([][]bool, poolSize(opts.Workers, len(live)))
	for w := range marks {
		marks[w] = make([]bool, maxN)
	}
	_ = parallelFor(opts.Workers, len(live), func(w, k int) error {
		i := live[k]
		iopts := opts
		iopts.Params = params[i]
		sol, err := finishItem(items[i].Users, iopts, round, marks[w], pipelineTime)
		res[i] = BatchResult{Solution: sol, Err: err}
		return nil
	})
	return res
}

// key is the identity a Session caches u's pipeline under: Graph when set,
// else View.
func (u *UserInput) key() any {
	if u.Graph != nil {
		return u.Graph
	}
	return u.View
}

// stage returns u's pipeline input: the Applied staged for u's View, carrying
// its predecessor; else the View as it is; else Graph compiled.
func stage(u UserInput, applied []*Applied) stagedView {
	if u.View == nil {
		return stagedView{view: u.Graph.Compile()}
	}
	for _, a := range applied {
		if a.staged.view == u.View {
			return a.staged
		}
	}
	return stagedView{view: u.View}
}

// finishItem is the back half of every solve: instantiate the users' part
// templates, run Algorithm 2's greedy scheme generation, build the
// placements and evaluate the model off each graph's view (the parts carry
// indices into it). mark is the calling worker's scratch, clean on entry and
// on return.
func finishItem(users []UserInput, opts Options, round map[any]*graphPipeline, mark []bool, pipelineTime time.Duration) (*Solution, error) {
	// PipelineTime is the whole round's pipeline cost (shared across the
	// batch, not attributable to one item).
	stats := Stats{EngineName: opts.Engine.Name(), Users: len(users), PipelineTime: pipelineTime}
	totalParts := 0
	for _, u := range users {
		totalParts += len(round[u.key()].protos)
	}
	parts := make([]Part, 0, totalParts)
	userPartEnd := make([]int, len(users))
	for ui, u := range users {
		gp := round[u.key()]
		stats.NodesBefore += gp.view.NumNodes()
		stats.EdgesBefore += gp.view.NumEdges()
		stats.NodesAfter += gp.nodesAfter
		stats.EdgesAfter += gp.edgesAfter
		parts = instantiateProtos(parts, ui, gp.protos)
		userPartEnd[ui] = len(parts)
	}
	stats.Parts = len(parts)

	greedyStart := time.Now()
	initialObj, moves, iters := runGreedy(users, parts, opts)
	stats.GreedyTime = time.Since(greedyStart)
	stats.GreedyMoves = moves
	stats.GreedyIterations = iters

	sol := &Solution{Parts: parts, Stats: stats, InitialObjective: initialObj}
	sol.Placements = make([]mec.Placement, len(users))
	// Size each Remote map for its final population so the inserts below
	// never grow a map mid-fill; growth buckets dominated the assembly
	// allocation profile.
	remoteNodes := make([]int, len(users))
	for _, p := range parts {
		if p.Remote {
			remoteNodes[p.User] += len(p.Nodes)
		}
	}
	for i, u := range users {
		sol.Placements[i] = mec.Placement{
			Graph:         u.Graph,
			Remote:        make(map[graph.NodeID]bool, remoteNodes[i]),
			DeviceCompute: u.DeviceCompute,
			Bandwidth:     u.Bandwidth,
			PowerTransmit: u.PowerTransmit,
		}
	}
	for _, p := range parts {
		if p.Remote {
			for _, id := range p.Nodes {
				sol.Placements[p.User].Remote[id] = true
			}
		}
	}

	sol.States = make([]mec.UserState, len(users))
	states := make([]mec.UserState, len(users))
	partBase := 0
	for ui, pl := range sol.Placements {
		gp := round[users[ui].key()]
		sol.States[ui] = userState(gp.view, gp.boundary, parts[partBase:userPartEnd[ui]], pl, mark)
		states[ui] = sol.States[ui]
		states[ui].LocalWork += users[ui].FixedLocalWork
		partBase = userPartEnd[ui]
	}
	eval, err := mec.Evaluate(opts.Params, states)
	if err != nil {
		return nil, err
	}
	sol.Eval = eval
	return sol, nil
}

// userState is Placement.State computed off the graph's view: the local and
// remote work sums walk the nodes ascending (the same order as Graph.Nodes),
// and the cut sum walks the boundary rows' stored edges u ascending, t>u
// ascending (the order Graph.Edges sorts into), so every float lands in the
// same order State produces. An edge inside one part never crosses, whatever
// the placement, so the rows boundary leaves out add nothing. parts are the
// user's parts; their idx slices index the view. mark is the calling
// worker's scratch, clean on entry and cleaned before return.
func userState(v *graph.CSR, boundary []int32, parts []Part, pl mec.Placement, mark []bool) mec.UserState {
	st := markedWork(v, parts, pl, mark)
	for _, u := range boundary {
		tgt, w := v.Adj(u)
		for e, t := range tgt {
			if t > u && mark[u] != mark[t] {
				st.CutWeight += w[e]
			}
		}
	}
	clear(mark[:v.NumNodes()])
	return st
}

// markedWork marks the view rows of the user's remote parts in mark and
// returns the user's state without its cut: the placement's fields and the
// work sums, each node's weight added, ascending, to RemoteWork or LocalWork
// by its mark. The sum a node is not in gets +0 instead, which leaves it as
// it was (a sum that starts at +0 is never -0), so no branch hangs on the
// marks and the loop runs alike whatever the placement or its code address.
func markedWork(v *graph.CSR, parts []Part, pl mec.Placement, mark []bool) mec.UserState {
	st := mec.UserState{DeviceCompute: pl.DeviceCompute, Bandwidth: pl.Bandwidth, PowerTransmit: pl.PowerTransmit}
	for pi := range parts {
		if parts[pi].Remote {
			for _, li := range parts[pi].idx {
				mark[li] = true
			}
		}
	}
	ws := v.NodeWeights()
	mark = mark[:len(ws)]
	var remote, local float64
	for u, w := range ws {
		var m uint64
		if mark[u] {
			m = 1
		}
		bw := math.Float64bits(w)
		remote += math.Float64frombits(bw & -m)
		local += math.Float64frombits(bw &^ -m)
	}
	st.RemoteWork, st.LocalWork = remote, local
	return st
}

// protoPart is a user-independent part template produced by the pipeline
// for one distinct graph.
type protoPart struct {
	nodes  []graph.NodeID
	idx    []int32 // view indices of nodes
	work   float64
	adj    []PartEdge // Other indexes within the same proto slice
	remote bool
}

// instantiateProtos appends user ui's copy of the graph's part templates,
// rebasing adjacency indices to the user's offset in parts. Node
// slices are shared with the templates (read-only downstream).
func instantiateProtos(parts []Part, ui int, protos []protoPart) []Part {
	base := len(parts)
	// One adjacency slab for the whole template: each part's rebased edge
	// list is a carve, not its own allocation. Lists are never appended to
	// after instantiation, so sharing a backing array is safe.
	total := 0
	for _, pp := range protos {
		total += len(pp.adj)
	}
	var slab []PartEdge
	if total > 0 {
		slab = make([]PartEdge, 0, total)
	}
	for _, pp := range protos {
		p := Part{
			User: ui, Nodes: pp.nodes, Work: pp.work,
			Remote: pp.remote, InitialRemote: pp.remote,
			idx: pp.idx,
		}
		if len(pp.adj) > 0 {
			start := len(slab)
			for _, e := range pp.adj {
				slab = append(slab, PartEdge{Other: base + e.Other, Weight: e.Weight})
			}
			p.Adj = slab[start:len(slab):len(slab)]
		}
		parts = append(parts, p)
	}
	return parts
}
