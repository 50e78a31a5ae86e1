package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"copmecs/internal/graph"
	"copmecs/internal/mec"
)

// BatchItem is one independent solve request of a batch: its own user
// population and (optionally) its own MEC system constants. The zero Params
// value inherits the solver options' params (and ultimately mec.Defaults),
// exactly as SolveWithParams resolves them.
type BatchItem struct {
	Users  []UserInput
	Params mec.Params
}

// BatchResult is one item's outcome: a solution or that item's error. Items
// fail independently — one invalid request does not poison the round.
type BatchResult struct {
	Solution *Solution
	Err      error
}

// BatchSolve solves many independent items in one fused pass. The results
// are bit-for-bit identical to calling Solve once per item (a property test
// enforces this, including against the map-pipeline oracle); the win is
// constant-factor: every distinct graph across the whole batch is compiled
// into one fused CSR mega-instance, compressed by a single LPA pass, cut
// with the arena-backed eigensolvers, and evaluated straight off the
// fused arrays — instead of paying per-graph pipeline setup N times.
//
// With opts.Workers > 1 and the spectral engine, the recursive bisections of
// all cut jobs additionally share one work-stealing pool, so a single deep
// recursion tree cannot serialise the round.
func BatchSolve(ctx context.Context, items []BatchItem, opts Options) []BatchResult {
	return batchSolve(ctx, items, opts, nil)
}

// BatchSolve is package-level BatchSolve through the session cache: graphs
// already pipelined by earlier solves skip the fused pass entirely, and
// graphs fused this round are cached for later solves.
func (s *Session) BatchSolve(ctx context.Context, items []BatchItem) []BatchResult {
	return batchSolve(ctx, items, s.opts, s)
}

func batchSolve(ctx context.Context, items []BatchItem, opts Options, cache *Session) []BatchResult {
	res := make([]BatchResult, len(items))
	if err := ctx.Err(); err != nil {
		for i := range res {
			res[i].Err = err
		}
		return res
	}
	if opts.Engine == nil {
		opts.Engine = SpectralEngine{}
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	// Per-item normalisation, mirroring solve()'s checks and error text.
	params := make([]mec.Params, len(items))
	valid := make([]bool, len(items))
	for i, it := range items {
		p := it.Params
		if p == (mec.Params{}) {
			p = opts.Params
		}
		if p == (mec.Params{}) {
			p = mec.Defaults()
		}
		if err := p.Validate(); err != nil {
			res[i].Err = fmt.Errorf("core: %w", err)
			continue
		}
		bad := false
		for ui, u := range it.Users {
			if u.Graph == nil {
				res[i].Err = fmt.Errorf("%w: user %d", ErrNilGraph, ui)
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		params[i] = p
		valid[i] = true
	}

	// The map pipeline is the reference oracle, not a hot path: loop it.
	if opts.UseMapPipeline {
		batchFallback(ctx, items, opts, params, valid, cache, res)
		return res
	}

	// Distinct graphs across the whole batch, first-appearance order,
	// split by session-cache state.
	graphIdx := make(map[*graph.Graph]int)
	var distinct []*graph.Graph
	for i, it := range items {
		if !valid[i] {
			continue
		}
		for _, u := range it.Users {
			if _, ok := graphIdx[u.Graph]; !ok {
				graphIdx[u.Graph] = len(distinct)
				distinct = append(distinct, u.Graph)
			}
		}
	}
	protos := make([][]protoPart, len(distinct))
	pstats := make([]pipelineStats, len(distinct))
	var uncached []int // indices into distinct
	for gi, g := range distinct {
		if cache != nil {
			if pp, ps, ok := cache.lookup(g); ok {
				protos[gi] = pp
				pstats[gi] = ps
				continue
			}
		}
		uncached = append(uncached, gi)
	}

	// Fuse and pipeline every graph the cache could not serve. fused[gi]
	// records the graph's span for the CSR-native evaluator below.
	pipelineStart := time.Now()
	var f *graph.FusedCSR
	fusedSpan := make(map[*graph.Graph]int)
	if len(uncached) > 0 {
		gs := make([]*graph.Graph, len(uncached))
		for k, gi := range uncached {
			gs[k] = distinct[gi]
		}
		f = graph.Fuse(gs)
		pp, ps, err := runPipelineFused(ctx, f, opts)
		if err != nil {
			// Per-item fallback keeps the batch API total: items still
			// succeed or fail exactly as their individual solves would.
			batchFallback(ctx, items, opts, params, valid, cache, res)
			return res
		}
		for k, gi := range uncached {
			protos[gi] = pp[k]
			pstats[gi] = ps[k]
			fusedSpan[distinct[gi]] = k
			if cache != nil {
				cache.store(distinct[gi], pp[k], ps[k])
			}
		}
	}
	pipelineTime := time.Since(pipelineStart)

	// Assemble each item exactly as solve() does. Evaluation walks the fused
	// arrays for graphs pipelined this round (their parts carry CSR indices)
	// and falls back to Placement.State for cache-served graphs.
	var mark []bool
	if f != nil {
		maxN := 0
		for k := 0; k < f.Graphs(); k++ {
			if n := int(f.NodeBase[k+1] - f.NodeBase[k]); n > maxN {
				maxN = n
			}
		}
		mark = make([]bool, maxN)
	}
	for i, it := range items {
		if !valid[i] {
			continue
		}
		iopts := opts
		iopts.Params = params[i]
		sol, err := assembleItem(it.Users, iopts, graphIdx, protos, pstats, f, fusedSpan, mark, pipelineTime)
		res[i] = BatchResult{Solution: sol, Err: err}
	}
	return res
}

// batchFallback solves the still-pending items one by one (the reference
// path): used for the map-pipeline oracle and when the fused pipeline fails.
func batchFallback(ctx context.Context, items []BatchItem, opts Options, params []mec.Params, valid []bool, cache *Session, res []BatchResult) {
	for i := range items {
		if !valid[i] {
			continue
		}
		o := opts
		o.Params = params[i]
		sol, err := solve(ctx, items[i].Users, o, cache)
		res[i] = BatchResult{Solution: sol, Err: err}
	}
}

// runPipelineFused is runPipelineCSR over a fused multi-graph view,
// demultiplexing the results back into per-graph part templates and
// counters. Every kernel it reuses is component-local and every component of
// the fused view belongs to exactly one graph, so each graph's templates are
// bit-identical to a solo runPipelineCSR over that graph.
func runPipelineFused(ctx context.Context, f *graph.FusedCSR, opts Options) ([][]protoPart, []pipelineStats, error) {
	jobs, err := buildCSRJobs(f.View, opts)
	if err != nil {
		return nil, nil, err
	}
	maxParts := opts.MaxParts
	if maxParts < 2 {
		maxParts = 2
	}
	blocksOf := make([][][]int32, len(jobs))
	spec, isSpectral := opts.Engine.(SpectralEngine)
	switch {
	case isSpectral && opts.Workers > 1:
		if err := partitionJobsSteal(ctx, jobs, spec, maxParts, opts.Workers, blocksOf); err != nil {
			return nil, nil, err
		}
	case opts.Workers == 1:
		// Serial: one split workspace across every job of the round.
		sc := &splitScratch{}
		for i := range jobs {
			blocks, err := partitionCSRScratch(ctx, &jobs[i], opts.Engine, maxParts, sc)
			if err != nil {
				return nil, nil, fmt.Errorf("core: cut sub-graph: %w", err)
			}
			blocksOf[i] = blocks
		}
	default:
		if err := parallelForEach(opts.Workers, len(jobs), func(i int) error {
			blocks, err := partitionCSR(ctx, &jobs[i], opts.Engine, maxParts)
			if err != nil {
				return fmt.Errorf("core: cut sub-graph: %w", err)
			}
			blocksOf[i] = blocks
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}

	// Demux: graph k owns jobs (= components) [CompBase[k], CompBase[k+1]).
	protos := make([][]protoPart, f.Graphs())
	pstats := make([]pipelineStats, f.Graphs())
	ids := f.View.IDs()
	var sc protoScratch
	sc.prime(f.View.NumNodes(), len(jobs), true)
	for k := 0; k < f.Graphs(); k++ {
		total := 0
		for ci := f.CompBase[k]; ci < f.CompBase[k+1]; ci++ {
			total += len(blocksOf[ci])
		}
		protos[k] = make([]protoPart, 0, total)
		for ci := f.CompBase[k]; ci < f.CompBase[k+1]; ci++ {
			j := &jobs[ci]
			pstats[k].nodesAfter += j.n
			pstats[k].edgesAfter += j.nnz() / 2
			protos[k] = appendJobProtos(protos[k], j, blocksOf[ci], ids, f.NodeBase[k], true, &sc)
		}
	}
	return protos, pstats, nil
}

// assembleItem is the per-item back half of solve(): instantiate templates,
// run the greedy scheme generation, build placements, evaluate.
func assembleItem(users []UserInput, opts Options, graphIdx map[*graph.Graph]int, protos [][]protoPart, pstats []pipelineStats, f *graph.FusedCSR, fusedSpan map[*graph.Graph]int, mark []bool, pipelineTime time.Duration) (*Solution, error) {
	stats := &Stats{EngineName: opts.Engine.Name(), Users: len(users)}
	// PipelineTime is the whole fused round's pipeline cost (shared across
	// the batch, not attributable to one item).
	stats.PipelineTime = pipelineTime
	totalParts := 0
	for _, u := range users {
		totalParts += len(protos[graphIdx[u.Graph]])
	}
	parts := make([]Part, 0, totalParts)
	userPartEnd := make([]int, len(users))
	for ui, u := range users {
		stats.NodesBefore += u.Graph.NumNodes()
		stats.EdgesBefore += u.Graph.NumEdges()
		gi := graphIdx[u.Graph]
		stats.NodesAfter += pstats[gi].nodesAfter
		stats.EdgesAfter += pstats[gi].edgesAfter
		parts = instantiateProtos(parts, ui, protos[gi])
		userPartEnd[ui] = len(parts)
	}
	stats.Parts = len(parts)

	greedyStart := time.Now()
	initialObj, moves, iters := runGreedy(users, parts, opts)
	stats.GreedyTime = time.Since(greedyStart)
	stats.GreedyMoves = moves
	stats.GreedyIterations = iters

	sol := &Solution{Parts: parts, Stats: *stats, InitialObjective: initialObj}
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

	states := make([]mec.UserState, len(users))
	partBase := 0
	for ui, pl := range sol.Placements {
		if k, ok := fusedSpan[users[ui].Graph]; ok {
			states[ui] = fusedUserState(f, k, parts[partBase:userPartEnd[ui]], pl, mark)
		} else {
			states[ui] = pl.State()
		}
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

// fusedUserState is Placement.State computed off the fused CSR: the local
// and remote work sums walk the graph's node span ascending (the same order
// as Graph.Nodes), and the cut sum walks stored edges u ascending, v>u
// ascending (the same order Graph.Edges sorts into), so every float lands in
// the same order State produces. parts are the user's parts; their idx
// slices index the graph span. mark is shared scratch, clean on entry and
// cleaned before return.
func fusedUserState(f *graph.FusedCSR, k int, parts []Part, pl mec.Placement, mark []bool) mec.UserState {
	var st mec.UserState
	st.DeviceCompute = pl.DeviceCompute
	st.Bandwidth = pl.Bandwidth
	st.PowerTransmit = pl.PowerTransmit

	for pi := range parts {
		if parts[pi].Remote {
			for _, li := range parts[pi].idx {
				mark[li] = true
			}
		}
	}
	v := f.View
	base := f.NodeBase[k]
	n := f.NodeBase[k+1] - base
	nodeW := v.NodeWeights()
	for li := int32(0); li < n; li++ {
		w := nodeW[base+li]
		if mark[li] {
			st.RemoteWork += w
		} else {
			st.LocalWork += w
		}
	}
	for li := int32(0); li < n; li++ {
		tgt, w := v.Adj(base + li)
		for e, fv := range tgt {
			lv := fv - base
			if lv > li && mark[li] != mark[lv] {
				st.CutWeight += w[e]
			}
		}
	}
	for pi := range parts {
		if parts[pi].Remote {
			for _, li := range parts[pi].idx {
				mark[li] = false
			}
		}
	}
	return st
}
