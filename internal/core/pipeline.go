package core

import (
	"context"
	"fmt"
	"slices"

	"copmecs/internal/graph"
	"copmecs/internal/lpa"
)

// rawBlock presents an uncompressed component as the block of the identity
// compression: every member its own super-node, the adjacency renumbered to
// member positions. pos is view-sized scratch.
func rawBlock(c *graph.CSR, comp, pos []int32) *lpa.Block {
	k, nnz := len(comp), 0
	for li, u := range comp {
		pos[u] = int32(li)
		nnz += c.Degree(u)
	}
	b := &lpa.Block{
		NodeW:     make([]float64, k),
		Off:       make([]int32, 1, k+1),
		Tgt:       make([]int32, 0, nnz),
		W:         make([]float64, 0, nnz),
		MemberOff: make([]int32, k+1),
		Members:   make([]int32, k),
	}
	nodeW := c.NodeWeights()
	for li, u := range comp {
		b.NodeW[li] = nodeW[u]
		b.Members[li], b.MemberOff[li+1] = int32(li), int32(li+1)
		tgt, w := c.Adj(u)
		for _, v := range tgt {
			b.Tgt = append(b.Tgt, pos[v])
		}
		b.W = append(b.W, w...)
		b.Off = append(b.Off, int32(len(b.Tgt)))
	}
	return b
}

// graphPipeline is one graph's pipeline outcome and the unit a Session
// caches: the view it ran over, every component's record aligned with the
// view's Components(), the user-independent part templates those records
// expand to, and the compression counters. Every entry is a patchable base:
// the next SolveDelta against its graph patches view and carries the clean
// components' records. An entry owns its arrays; no entry shares a backing
// array with another graph's, except the cut lists noted at compSolveState.
type graphPipeline struct {
	view                   *graph.CSR
	comps                  []compSolveState
	protos                 []protoPart
	nodesAfter, edgesAfter int
}

// compSolveState is everything the pipeline derived for one component: its
// compression block (the identity block under DisableCompression), the cut
// lists recursive bisection produced over the block's local ids, the Lanczos
// iterations spent producing them, and the part templates the cuts expand
// to, adjacency indices relative to the component's first template. The
// block and the cuts name members by position, so they are valid for the
// same component in any view; the templates name view indices and NodeIDs,
// so they hold as long as no index shifts. A component's block and
// templates are its own allocations and its cut lists windows of the cut
// stage's per-worker arena (a few KiB a chunk), so an entry down a delta
// chain keeps an ancestor's memory alive only through the components it
// still carries from it.
type compSolveState struct {
	blk    *lpa.Block
	cuts   [][]int32
	iters  int
	protos []protoPart
}

// compJob is one dirty component of one graph of a round: the unit the
// worker pool compresses and cuts.
type compJob struct {
	view *graph.CSR
	comp int
	cs   *compSolveState
}

// runPipeline is the one pipeline driver: Algorithm 1 compression, the cut
// stage and template expansion, component by component, one graphPipeline
// per view. Every dirty component of every view is one job of one worker
// pool; every kernel a job runs is component-local, so each graph's outcome
// is bit-identical however many graphs share the round and whichever worker
// ran which job.
//
// prev and info name the predecessor of a patched view (views then holds
// that one view). A component with a clean predecessor (info.OldCompOf) is
// that predecessor's record, copied: block, cuts and — unless the patch
// shifted node indices — templates; only the shifted templates are
// re-expanded from the carried block and cuts. Every other component — all
// of them when prev is nil — runs compress → partition → expand.
func runPipeline(ctx context.Context, opts Options, views []*graph.CSR, prev *graphPipeline, info *graph.PatchInfo) ([]*graphPipeline, error) {
	out := make([]*graphPipeline, len(views))
	var jobs []compJob
	for k, view := range views {
		comps := view.Components()
		gp := &graphPipeline{view: view, comps: make([]compSolveState, len(comps))}
		out[k] = gp
		if prev != nil && len(info.OldCompOf) != len(comps) {
			return nil, fmt.Errorf("core: patch names %d components, the view has %d", len(info.OldCompOf), len(comps))
		}
		for i := range comps {
			if prev == nil || info.OldCompOf[i] < 0 {
				jobs = append(jobs, compJob{view, i, &gp.comps[i]})
				continue
			}
			oc := info.OldCompOf[i]
			if int(oc) >= len(prev.comps) || len(prev.comps[oc].blk.Members) != len(comps[i]) {
				return nil, fmt.Errorf("core: component %d does not align with previous component %d", i, oc)
			}
			gp.comps[i] = prev.comps[oc]
		}
	}

	if err := runJobs(ctx, opts, jobs); err != nil {
		return nil, err
	}

	// Assembly: a graph's templates are its components' groups end to end,
	// adjacency re-based to the group's offset.
	shifted := info != nil && info.NewToOld != nil
	var sc expandScratch
	for _, gp := range out {
		comps, ids := gp.view.Components(), gp.view.IDs()
		total, adj := 0, 0
		for ci := range gp.comps {
			cs := &gp.comps[ci]
			if cs.protos == nil || shifted {
				cs.protos = expandProtos(cs.blk, cs.cuts, comps[ci], ids, &sc)
			}
			total += len(cs.protos)
			for pi := range cs.protos {
				adj += len(cs.protos[pi].adj)
			}
		}
		gp.protos = make([]protoPart, 0, total)
		adjSlab := make([]PartEdge, 0, adj)
		for ci := range gp.comps {
			cs := &gp.comps[ci]
			gp.nodesAfter += len(cs.blk.NodeW)
			gp.edgesAfter += len(cs.blk.Tgt) / 2
			base := len(gp.protos)
			for _, pp := range cs.protos {
				if len(pp.adj) > 0 {
					start := len(adjSlab)
					for _, e := range pp.adj {
						adjSlab = append(adjSlab, PartEdge{Other: base + e.Other, Weight: e.Weight})
					}
					pp.adj = adjSlab[start:len(adjSlab):len(adjSlab)]
				}
				gp.protos = append(gp.protos, pp)
			}
		}
	}
	return out, nil
}

// expandScratch is expandProtos' reusable workspace: the cut index of every
// local id, and the dense cut×cut cross-weight table with its "an edge
// crosses this pair" marks.
type expandScratch struct {
	blockOf []int32
	cross   []float64
	crossed []bool
}

// expandProtos expands one component's cut lists into its part templates:
// per-cut original-node expansion through the block's member positions,
// pairwise cross weights and the lightest-part-local initial placement.
// Adjacency indexes within the returned group, as the map-pipeline oracle
// indexes within a graph's templates once the group's offset is added. The
// group and its lists are allocations of the component's own.
//
// comp is the component's member list in the graph's view and ids the view's
// index→NodeID array. Each template records its members both as NodeIDs and
// as view indices — the evaluator's input.
func expandProtos(blk *lpa.Block, cuts [][]int32, comp []int32, ids []graph.NodeID, sc *expandScratch) []protoPart {
	// All cuts together cover the component's nodes exactly once, so the
	// per-cut node and index lists each carve one exactly-sized slab.
	nodesSlab := make([]graph.NodeID, 0, len(comp))
	idxBuf := make([]int32, 0, len(comp))
	expand := func(side []int32) ([]graph.NodeID, []int32, float64) {
		var work float64
		start := len(idxBuf)
		for _, s := range side {
			work += blk.NodeW[s]
			for _, pos := range blk.Members[blk.MemberOff[s]:blk.MemberOff[s+1]] {
				idxBuf = append(idxBuf, comp[pos])
			}
		}
		gidx := idxBuf[start:len(idxBuf):len(idxBuf)]
		// View index order is NodeID order (both ascend together), so sorting
		// the indices yields the node ordering the oracle produces by
		// sorting NodeIDs.
		slices.Sort(gidx)
		nstart := len(nodesSlab)
		for _, li := range gidx {
			nodesSlab = append(nodesSlab, ids[li])
		}
		return nodesSlab[nstart:len(nodesSlab):len(nodesSlab)], gidx, work
	}

	n := len(blk.NodeW)
	if cap(sc.blockOf) < n {
		sc.blockOf = make([]int32, n)
	}
	of := sc.blockOf[:n]
	protos := make([]protoPart, 0, len(cuts))
	lightest, lightestWork := -1, 0.0
	for bi, cut := range cuts {
		nodes, gidx, work := expand(cut)
		protos = append(protos, protoPart{
			nodes: nodes, idx: gidx, work: work, remote: true,
		})
		for _, id := range cut {
			of[id] = int32(bi)
		}
		if lightest < 0 || work < lightestWork {
			lightest, lightestWork = bi, work
		}
	}
	k := len(cuts)
	if k < 2 {
		return protos
	}
	// Pairwise communication between the cuts of this sub-graph, in a dense
	// k×k table keyed [lower cut][higher cut]. The scan runs u ascending, v>u
	// ascending — the same sequence as the oracle's Edges() loop, so per-pair
	// float sums match exactly. Two cuts are adjacent when an edge crosses
	// them, whatever its weight, so that is marked apart from the sum.
	if cap(sc.cross) < k*k {
		sc.cross = make([]float64, k*k)
		sc.crossed = make([]bool, k*k)
	}
	cross, crossed := sc.cross[:k*k], sc.crossed[:k*k]
	clear(cross)
	clear(crossed)
	pairs := 0
	for u := int32(0); u < int32(n); u++ {
		for e := blk.Off[u]; e < blk.Off[u+1]; e++ {
			v := blk.Tgt[e]
			if v < u || of[u] == of[v] {
				continue
			}
			p := int(min(of[u], of[v]))*k + int(max(of[u], of[v]))
			cross[p] += blk.W[e]
			if !crossed[p] {
				crossed[p] = true
				pairs++
			}
		}
	}
	// One slab for the group, each part's list a window filled b ascending.
	slab := make([]PartEdge, 0, 2*pairs)
	for a := range protos {
		start := len(slab)
		for b := range protos {
			if p := min(a, b)*k + max(a, b); crossed[p] {
				slab = append(slab, PartEdge{Other: b, Weight: cross[p]})
			}
		}
		if len(slab) > start {
			protos[a].adj = slab[start:len(slab):len(slab)]
		}
	}
	// Algorithm 2's initial scheme generalised: the lightest part stays on
	// the device, every other part offloads.
	protos[lightest].remote = false
	return protos
}

// splitScratch is the reusable workspace of the cut stage: rank and
// epoch-membership marks over a job's local ids, the induced-CSR assembly
// arrays of one block split, and the arenas block lists are carved from. One
// serves every job its cut-stage goroutine takes.
type splitScratch struct {
	pos    []int32
	mark   []int32
	epoch  int32
	sorted []int32
	ioff   []int32
	itgt   []int32
	iw     []float64
	ident  []int32
	indiv  []bool
	// sideChunk is a carve-forward arena for the split side lists, which
	// escape into block slices. Windows are never rewound, so reuse of the
	// scratch cannot clobber a live block. blockChunk is the same
	// arena idea for the per-job block header slices.
	sideChunk  []int32
	blockChunk [][]int32
}

// cutChunkCap bounds the arena chunk size: large enough to amortise dozens of
// per-job slabs per allocation, small enough that a cut list pinning its
// chunk holds only a few KiB of slack.
const cutChunkCap = 2048

// sideSlab carves an n-length window for one split's two side lists. The
// first chunk is sized exactly (a fresh scratch bisecting once must not
// overshoot a tiny job); replacement chunks double toward the cap so a
// scratch shared across a whole round amortises quickly.
func (sc *splitScratch) sideSlab(n int) []int32 {
	if cap(sc.sideChunk)-len(sc.sideChunk) < n {
		size := 2 * cap(sc.sideChunk)
		if size > cutChunkCap {
			size = cutChunkCap
		}
		if size < n {
			size = n
		}
		sc.sideChunk = make([]int32, 0, size)
	}
	off := len(sc.sideChunk)
	sc.sideChunk = sc.sideChunk[:off+n]
	return sc.sideChunk[off : off+n : off+n]
}

// blockSlab carves a zero-length, capacity-k window for one job's block
// header list (the job appends at most k block slices).
func (sc *splitScratch) blockSlab(k int) [][]int32 {
	if cap(sc.blockChunk)-len(sc.blockChunk) < k {
		size := 2 * cap(sc.blockChunk)
		if size > cutChunkCap {
			size = cutChunkCap
		}
		if size < k {
			size = k
		}
		sc.blockChunk = make([][]int32, 0, size)
	}
	off := len(sc.blockChunk)
	sc.blockChunk = sc.blockChunk[:off+k]
	return sc.blockChunk[off : off : off+k]
}

func (sc *splitScratch) ensure(n int) {
	if len(sc.pos) < n {
		sc.pos = make([]int32, n)
		sc.mark = make([]int32, n)
		sc.epoch = 0
	}
}

// identity returns [0, 1, …, n) as a capacity-clamped view of a buffer that
// only ever holds the ascending sequence. Block slices are immutable once
// created (splits copy, never write in place), so every job a scratch serves
// can alias the same backing array for its starting all-nodes block — even
// the jobs that never split and carry the block into their results.
func (sc *splitScratch) identity(n int) []int32 {
	for len(sc.ident) < n {
		sc.ident = append(sc.ident, int32(len(sc.ident)))
	}
	return sc.ident[:n:n]
}

// splitBlock bisects one block of blk with the given engine, reporting the
// Lanczos iterations it cost. The block's members are renumbered by rank
// into an induced CSR — the rank map is monotone, so adjacency stays
// ascending without re-sorting and the engine sees the members' order —
// and the engine's sides are translated rank → local id in place. It is a
// pure function of (blk, block, engine) — scratch only carries reusable
// buffers — which is what lets the cut stage run a job on any goroutine
// with bit-identical results.
func splitBlock(ctx context.Context, blk *lpa.Block, block []int32, engine Engine, sc *splitScratch) (sideA, sideB []int32, iters int, err error) {
	sc.ensure(len(blk.NodeW))
	off, tgt, w := blk.Off, blk.Tgt, blk.W
	if cap(sc.sorted) < len(block) {
		sc.sorted = make([]int32, len(block))
	}
	sorted := sc.sorted[:len(block)]
	copy(sorted, block)
	slices.Sort(sorted)
	sc.epoch++
	for r, id := range sorted {
		sc.pos[id] = int32(r)
		sc.mark[id] = sc.epoch
	}
	n := len(sorted)
	if cap(sc.ioff) < n+1 {
		sc.ioff = make([]int32, n+1)
	}
	sc.ioff = sc.ioff[:n+1]
	nnz := 0
	sc.ioff[0] = 0
	for r, id := range sorted {
		for e := off[id]; e < off[id+1]; e++ {
			if sc.mark[tgt[e]] == sc.epoch {
				nnz++
			}
		}
		sc.ioff[r+1] = int32(nnz)
	}
	if cap(sc.itgt) < nnz {
		sc.itgt = make([]int32, nnz)
		sc.iw = make([]float64, nnz)
	}
	sc.itgt, sc.iw = sc.itgt[:nnz], sc.iw[:nnz]
	p := 0
	for _, id := range sorted {
		for e := off[id]; e < off[id+1]; e++ {
			if v := tgt[e]; sc.mark[v] == sc.epoch {
				sc.itgt[p] = sc.pos[v]
				sc.iw[p] = w[e]
				p++
			}
		}
	}
	// Sides carved from the scratch slab (or the engine's own) hold member
	// ranks; translating rank→local id in place turns them into the block
	// side lists without a second slab. Sides are never appended to
	// downstream.
	sideA, sideB, iters, err = engine.Bisect(ctx, sc.ioff, sc.itgt, sc.iw, sc.sideSlab(n))
	if err != nil {
		return nil, nil, 0, err
	}
	for i, r := range sideA {
		sideA[i] = sorted[r]
	}
	for i, r := range sideB {
		sideB[i] = sorted[r]
	}
	return sideA, sideB, iters, nil
}
