package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/mec"
)

// solveMapOracle is Solve over the map pipeline: the reference every entry
// point of the view pipeline is compared against. It shares the template
// instantiation and the greedy with production (they are pipeline-agnostic)
// and evaluates through Placement.State, so the view evaluator is checked
// too.
func solveMapOracle(ctx context.Context, users []UserInput, opts Options) (*Solution, error) {
	opts = opts.normalised()
	if err := opts.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pipelined := make(map[*graph.Graph]*graphPipeline)
	stats := Stats{EngineName: opts.Engine.Name(), Users: len(users)}
	var parts []Part
	for ui, u := range users {
		if u.Graph == nil {
			return nil, fmt.Errorf("%w: user %d", ErrNilGraph, ui)
		}
		gp := pipelined[u.Graph]
		if gp == nil {
			var err error
			if gp, err = runPipelineMap(ctx, u.Graph, opts); err != nil {
				return nil, err
			}
			pipelined[u.Graph] = gp
		}
		stats.NodesBefore += u.Graph.NumNodes()
		stats.EdgesBefore += u.Graph.NumEdges()
		stats.NodesAfter += gp.nodesAfter
		stats.EdgesAfter += gp.edgesAfter
		parts = instantiateProtos(parts, ui, gp.protos)
	}
	stats.Parts = len(parts)
	initialObj, moves, iters := runGreedy(users, parts, opts)
	stats.GreedyMoves, stats.GreedyIterations = moves, iters

	sol := &Solution{Parts: parts, Stats: stats, InitialObjective: initialObj}
	sol.Placements = make([]mec.Placement, len(users))
	states := make([]mec.UserState, len(users))
	for i, u := range users {
		sol.Placements[i] = mec.Placement{
			Graph: u.Graph, Remote: make(map[graph.NodeID]bool),
			DeviceCompute: u.DeviceCompute, Bandwidth: u.Bandwidth, PowerTransmit: u.PowerTransmit,
		}
	}
	for _, p := range parts {
		if p.Remote {
			for _, id := range p.Nodes {
				sol.Placements[p.User].Remote[id] = true
			}
		}
	}
	for i, pl := range sol.Placements {
		states[i] = pl.State()
		states[i].LocalWork += users[i].FixedLocalWork
	}
	eval, err := mec.Evaluate(opts.Params, states)
	if err != nil {
		return nil, err
	}
	sol.Eval = eval
	return sol, nil
}

// runPipelineMap is the original map-based pipeline — mutable graphs,
// induced sub-graphs, map-keyed membership, engines called on materialised
// sub-graphs through bisectGraph — kept as the oracle the view pipeline must
// reproduce bit for bit. Compression comes from lpa.CompressCSR, each
// component's block materialised as a graph over super-node IDs 0..k−1
// (package lpa pins CompressCSR against its own map oracle).
func runPipelineMap(ctx context.Context, g *graph.Graph, opts Options) (*graphPipeline, error) {
	type job struct {
		sub       *graph.Graph
		membersOf map[graph.NodeID][]graph.NodeID // nil when uncompressed
	}
	var (
		jobs []job
		ps   graphPipeline
	)
	if opts.DisableCompression {
		for _, comp := range components(g) {
			sub, err := inducedSubgraph(g, comp)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			ps.nodesAfter += sub.NumNodes()
			ps.edgesAfter += sub.NumEdges()
			jobs = append(jobs, job{sub: sub})
		}
	} else {
		cr, err := lpa.CompressCSR(g.Compile(), opts.LPA)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		ps.nodesAfter = cr.NodesAfter
		ps.edgesAfter = cr.EdgesAfter
		for ci := 0; ci+1 < len(cr.CompOff); ci++ {
			base, end := cr.CompOff[ci], cr.CompOff[ci+1]
			j := job{sub: graph.New(int(end - base)), membersOf: make(map[graph.NodeID][]graph.NodeID)}
			for s := base; s < end; s++ {
				super := graph.NodeID(s - base)
				if err := j.sub.AddNode(super, cr.NodeW[s]); err != nil {
					return nil, err
				}
				for _, u := range cr.Members[cr.MemberOff[s]:cr.MemberOff[s+1]] {
					j.membersOf[super] = append(j.membersOf[super], cr.Input.IDOf(u))
				}
			}
			for s := base; s < end; s++ {
				for e := cr.Off[s]; e < cr.Off[s+1]; e++ {
					if t := cr.Tgt[e]; t > s {
						if err := j.sub.AddEdge(graph.NodeID(s-base), graph.NodeID(t-base), cr.W[e]); err != nil {
							return nil, err
						}
					}
				}
			}
			jobs = append(jobs, j)
		}
	}

	blocksOf := make([][][]graph.NodeID, len(jobs))
	for i := range jobs {
		blocks, err := partitionSubgraph(ctx, jobs[i].sub, opts.Engine, opts.MaxParts)
		if err != nil {
			return nil, fmt.Errorf("core: cut sub-graph: %w", err)
		}
		blocksOf[i] = blocks
	}

	var protos []protoPart
	expand := func(j job, side []graph.NodeID) ([]graph.NodeID, float64) {
		var nodes []graph.NodeID
		var work float64
		for _, super := range side {
			w, err := j.sub.NodeWeight(super)
			if err == nil {
				work += w
			}
			if j.membersOf != nil {
				nodes = append(nodes, j.membersOf[super]...)
			} else {
				nodes = append(nodes, super)
			}
		}
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		return nodes, work
	}
	for i, j := range jobs {
		blocks := blocksOf[i]
		base := len(protos)
		blockOf := make(map[graph.NodeID]int, j.sub.NumNodes())
		lightest, lightestWork := -1, 0.0
		for bi, block := range blocks {
			nodes, work := expand(j, block)
			protos = append(protos, protoPart{
				nodes: nodes, work: work, remote: true,
			})
			for _, id := range block {
				blockOf[id] = bi
			}
			if lightest < 0 || work < lightestWork {
				lightest, lightestWork = bi, work
			}
		}
		// Pairwise communication between blocks of this sub-graph.
		if len(blocks) > 1 {
			cross := make(map[[2]int]float64)
			for _, e := range j.sub.Edges() {
				a, b := blockOf[e.U], blockOf[e.V]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				cross[[2]int{a, b}] += e.Weight
			}
			for pair, w := range cross {
				pa, pb := base+pair[0], base+pair[1]
				// adj targets are proto-slice indices; instantiation adds
				// the per-user offset on top.
				protos[pa].adj = append(protos[pa].adj, PartEdge{Other: pb, Weight: w})
				protos[pb].adj = append(protos[pb].adj, PartEdge{Other: pa, Weight: w})
			}
			for bi := range blocks {
				adj := protos[base+bi].adj
				sort.Slice(adj, func(a, b int) bool { return adj[a].Other < adj[b].Other })
			}
			// Algorithm 2's initial scheme generalised: the lightest part
			// stays on the device, every other part offloads (for two-way
			// splits this is exactly "lighter side local, heavier remote").
			protos[base+lightest].remote = false
		}
	}
	ps.protos = protos
	return &ps, nil
}

// partitionSubgraph splits g into at most k parts by recursive bisection
// with the given engine: the heaviest divisible part is bisected until k
// parts exist or nothing can be split further. k ≥ 2; a single-node graph
// yields one part.
func partitionSubgraph(ctx context.Context, g *graph.Graph, engine Engine, k int) ([][]graph.NodeID, error) {
	blocks := [][]graph.NodeID{g.Nodes()}
	indivisible := make(map[int]bool)
	for len(blocks) < k {
		// Heaviest splittable block.
		best, bestWork := -1, -1.0
		for bi, block := range blocks {
			if indivisible[bi] || len(block) < 2 {
				continue
			}
			var work float64
			for _, id := range block {
				w, err := g.NodeWeight(id)
				if err != nil {
					return nil, err
				}
				work += w
			}
			if work > bestWork {
				best, bestWork = bi, work
			}
		}
		if best < 0 {
			break
		}
		sub, err := inducedSubgraph(g, blocks[best])
		if err != nil {
			return nil, err
		}
		sideA, sideB, err := bisectGraph(ctx, engine, sub)
		if err != nil {
			return nil, err
		}
		if len(sideA) == 0 || len(sideB) == 0 {
			indivisible[best] = true
			continue
		}
		blocks[best] = sideA
		blocks = append(blocks, sideB)
		// Indices shifted only at the tail; indivisible marks stay valid.
	}
	return blocks, nil
}

// csrOf lays g out as the arrays an Engine takes: g's nodes in ascending id
// order are local ids 0..n−1.
func csrOf(g *graph.Graph) (off, tgt []int32, w []float64) {
	c := g.Compile()
	off = make([]int32, c.NumNodes()+1)
	for u := int32(0); u < int32(c.NumNodes()); u++ {
		t, wt := c.Adj(u)
		tgt, w = append(tgt, t...), append(w, wt...)
		off[u+1] = int32(len(tgt))
	}
	return off, tgt, w
}

// bisectGraph is the oracle's engine call: engine.Bisect on g's arrays, the
// sides translated back to NodeIDs (local id order is NodeID order, so both
// come out sorted).
func bisectGraph(ctx context.Context, engine Engine, g *graph.Graph) (sideA, sideB []graph.NodeID, err error) {
	off, tgt, w := csrOf(g)
	a, b, _, err := engine.Bisect(ctx, off, tgt, w, make([]int32, g.NumNodes()))
	if err != nil {
		return nil, nil, err
	}
	ids := g.Nodes()
	for _, u := range a {
		sideA = append(sideA, ids[u])
	}
	for _, u := range b {
		sideB = append(sideB, ids[u])
	}
	return sideA, sideB, nil
}

// components returns the connected components of g as ascending ID lists,
// ordered by smallest member.
func components(g *graph.Graph) [][]graph.NodeID {
	seen := make(map[graph.NodeID]bool, g.NumNodes())
	var comps [][]graph.NodeID
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []graph.NodeID{start}
		for i := 0; i < len(comp); i++ {
			for _, nb := range g.Neighbors(comp[i]) {
				if !seen[nb] {
					seen[nb] = true
					comp = append(comp, nb)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// inducedSubgraph returns the sub-graph of g induced by keep, IDs preserved.
func inducedSubgraph(g *graph.Graph, keep []graph.NodeID) (*graph.Graph, error) {
	sub := graph.New(len(keep))
	for _, id := range keep {
		w, err := g.NodeWeight(id)
		if err != nil {
			return nil, err
		}
		if err := sub.AddNode(id, w); err != nil {
			return nil, err
		}
	}
	for _, id := range keep {
		for _, nb := range g.Neighbors(id) {
			if id < nb && sub.HasNode(nb) {
				w, _ := g.EdgeWeight(id, nb)
				if err := sub.AddEdge(id, nb, w); err != nil {
					return nil, err
				}
			}
		}
	}
	return sub, nil
}
