package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

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
// expand to, the boundary rows of them all, ascending (the evaluator's cut
// walk), and the compression counters. Every entry is a patchable base:
// the next Apply against its graph patches view, and the pass that stages
// the patched view carries the clean components' records. An entry owns its
// arrays; no entry shares a backing array with another graph's, except the
// cut lists and boundary windows noted at compSolveState.
type graphPipeline struct {
	view                   *graph.CSR
	comps                  []compSolveState
	protos                 []protoPart
	boundary               []int32
	nodesAfter, edgesAfter int
}

// compSolveState is everything the pipeline derived for one component: its
// compression block (the identity block under DisableCompression), the cut
// lists recursive bisection produced over the block's local ids, the Lanczos
// iterations spent producing them, the part templates the cuts expand to,
// adjacency indices relative to the component's first template, and the
// component's boundary rows: the view indices u, ascending, with a neighbour
// t > u in another part. The block and the cuts name members by position, so
// they are valid for the same component in any view; the templates and the
// boundary name view indices, so they hold as long as no index shifts. A
// component's block and templates are its own allocations, its cut lists
// windows of the cut stage's per-worker arena (a few KiB a chunk) and its
// boundary a window of its graph's boundary slab (assembleBoundary), so an
// entry down a delta chain keeps an ancestor's memory alive only through
// the components it still carries from it.
type compSolveState struct {
	blk      *lpa.Block
	cuts     [][]int32
	iters    int
	protos   []protoPart
	boundary []int32
}

// compJob is one dirty component of one graph of a round: the unit the
// worker pool compresses and cuts.
type compJob struct {
	view *graph.CSR
	comp int
	cs   *compSolveState
}

// stagedView is one graph's pipeline input: its view and, for a view patched
// from a cached predecessor, that predecessor and the patch (both nil for a
// compiled view).
type stagedView struct {
	view *graph.CSR
	prev *graphPipeline
	info *graph.PatchInfo
}

// runPipeline is the one pipeline driver: Algorithm 1 compression, the cut
// stage and template expansion, component by component, one graphPipeline
// per staged view. Every dirty component of every view is one job of the
// worker pool, and then every view one assembly unit of it; every kernel a
// job runs is component-local and an assembly reads only its own graph's
// records, so each graph's outcome is bit-identical however many graphs
// share the round and whichever worker ran which unit.
//
// A component of a patched view with a clean predecessor (info.OldCompOf) is
// that predecessor's record, copied: block, cuts and — unless the patch
// shifted node indices — templates and boundary rows; only shifted ones are
// re-expanded from the carried block and cuts. Every other component — all
// of them in a compiled view — runs compress → partition → expand.
func runPipeline(ctx context.Context, opts Options, in []stagedView) ([]*graphPipeline, error) {
	out := make([]*graphPipeline, len(in))
	var jobs []compJob
	for k, sv := range in {
		comps := sv.view.Components()
		gp := &graphPipeline{view: sv.view, comps: make([]compSolveState, len(comps))}
		out[k] = gp
		if sv.prev != nil && len(sv.info.OldCompOf) != len(comps) {
			return nil, fmt.Errorf("core: patch names %d components, the view has %d", len(sv.info.OldCompOf), len(comps))
		}
		for i := range comps {
			if sv.prev == nil || sv.info.OldCompOf[i] < 0 {
				jobs = append(jobs, compJob{sv.view, i, &gp.comps[i]})
				continue
			}
			oc := sv.info.OldCompOf[i]
			if int(oc) >= len(sv.prev.comps) || len(sv.prev.comps[oc].blk.Members) != len(comps[i]) {
				return nil, fmt.Errorf("core: component %d does not align with previous component %d", i, oc)
			}
			gp.comps[i] = sv.prev.comps[oc]
		}
	}

	if err := runJobs(ctx, opts, jobs); err != nil {
		return nil, err
	}

	// Assembly, one unit per graph: a graph's templates are its components'
	// groups end to end, adjacency re-based to the group's offset, and its
	// boundary their boundary rows as one ascending list.
	return out, parallelFor(opts.Workers, len(out), func(_, k int) error {
		sc := expandScratchPool.Get().(*expandScratch)
		defer expandScratchPool.Put(sc)
		gp := out[k]
		comps := gp.view.Components()
		shifted := in[k].info != nil && in[k].info.NewToOld != nil
		total, adj := 0, 0
		found, ends := sc.found[:0], sc.ends[:0]
		for ci := range gp.comps {
			cs := &gp.comps[ci]
			if cs.protos == nil || shifted {
				cs.protos, found = expandProtos(cs.blk, cs.cuts, comps[ci], gp.view, sc, found)
				ends = append(ends, int32(ci), int32(len(found)))
			}
			total += len(cs.protos)
			for pi := range cs.protos {
				adj += len(cs.protos[pi].adj)
			}
		}
		sc.found, sc.ends = found, ends
		assembleBoundary(gp, found, ends)
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
		return nil
	})
}

// assembleBoundary gives the components the pass expanded their boundary
// rows and gp its merged list. found holds the expanded components' rows end
// to end and ends, per expanded component, its index and the end of its rows
// in found. They move to one exactly sized slab of the graph's own, each
// component's list a window of it, so a component down a delta chain pins
// its graph's slab as its cut lists pin their arena chunk. The slab is the
// merged list when every component was expanded and their rows ascend end to
// end (components that are index ranges); otherwise the lists are merged
// into one of their own.
func assembleBoundary(gp *graphPipeline, found, ends []int32) {
	var slab []int32
	if len(found) > 0 {
		slab = slices.Clone(found)
	}
	start := int32(0)
	for j := 0; j < len(ends); j += 2 {
		cs, end := &gp.comps[ends[j]], ends[j+1]
		cs.boundary = nil
		if end > start {
			cs.boundary = slab[start:end:end]
		}
		start = end
	}
	if len(ends) == 2*len(gp.comps) && slices.IsSorted(slab) {
		gp.boundary = slab
		return
	}
	rows := 0
	for ci := range gp.comps {
		rows += len(gp.comps[ci].boundary)
	}
	if rows == 0 {
		return
	}
	gp.boundary = make([]int32, 0, rows)
	for ci := range gp.comps {
		gp.boundary = append(gp.boundary, gp.comps[ci].boundary...)
	}
	slices.Sort(gp.boundary)
}

// expandScratch is the assembly's reusable workspace: expandProtos' cut
// index of every local id and of every component position, its dense
// cut×cut cross-weight table with the "an edge crosses this pair" marks and
// the part of every view index, and the boundary rows a graph's expanded
// components found, with their ends.
type expandScratch struct {
	blockOf []int32
	posCut  []int32
	cross   []float64
	crossed []bool
	partOf  []int32
	found   []int32
	ends    []int32
}

// expandScratchPool lends assembly units their expandScratch, so a pass
// that re-expands only a delta's dirty components allocates no workspace.
var expandScratchPool = sync.Pool{New: func() any { return new(expandScratch) }}

// expandProtos expands one component's cut lists into its part templates:
// per-cut original-node expansion through the block's member positions,
// pairwise cross weights and the lightest-part-local initial placement.
// Adjacency indexes within the returned group, as the map-pipeline oracle
// indexes within a graph's templates once the group's offset is added. The
// group and its lists are allocations of the component's own.
//
// comp is the component's member list in view. Each template records its
// members both as NodeIDs and as view indices — the evaluator's input. The
// component's boundary rows (boundaryRows) are appended to found.
func expandProtos(blk *lpa.Block, cuts [][]int32, comp []int32, view *graph.CSR, sc *expandScratch, found []int32) ([]protoPart, []int32) {
	ids := view.IDs()
	n, m := len(blk.NodeW), len(comp)
	if cap(sc.blockOf) < n {
		sc.blockOf = make([]int32, n)
	}
	if cap(sc.posCut) < m {
		sc.posCut = make([]int32, m)
	}
	of, posCut := sc.blockOf[:n], sc.posCut[:m]
	// All cuts together cover the component's nodes exactly once, so the
	// per-cut node and index lists are windows of two exactly-sized slabs.
	// Every component position is tagged with its cut, and one ascending
	// scan of the positions appends each to its cut's window: comp ascends,
	// and view index order is NodeID order, so each list comes out in the
	// node order the oracle produces by sorting NodeIDs.
	nodesSlab := make([]graph.NodeID, m)
	idxSlab := make([]int32, m)
	protos := make([]protoPart, 0, len(cuts))
	lightest, lightestWork := -1, 0.0
	end := 0
	for bi, cut := range cuts {
		var work float64
		start := end
		for _, s := range cut {
			work += blk.NodeW[s]
			of[s] = int32(bi)
			for _, pos := range blk.Members[blk.MemberOff[s]:blk.MemberOff[s+1]] {
				posCut[pos] = int32(bi)
				end++
			}
		}
		protos = append(protos, protoPart{
			nodes: nodesSlab[start:start:end], idx: idxSlab[start:start:end], work: work, remote: true,
		})
		if lightest < 0 || work < lightestWork {
			lightest, lightestWork = bi, work
		}
	}
	for pos, u := range comp {
		p := &protos[posCut[pos]]
		p.nodes, p.idx = append(p.nodes, ids[u]), append(p.idx, u)
	}
	k := len(cuts)
	if k < 2 {
		return protos, found
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
	return protos, boundaryRows(found, protos, comp, view, sc)
}

// boundaryRows appends to dst, ascending, the members u of comp with a
// neighbour t > u in view in another of the component's parts (protos): the
// only rows holding an edge whose endpoints a placement can put on
// different sides.
func boundaryRows(dst []int32, protos []protoPart, comp []int32, view *graph.CSR, sc *expandScratch) []int32 {
	if cap(sc.partOf) < view.NumNodes() {
		sc.partOf = make([]int32, view.NumNodes())
	}
	partOf := sc.partOf
	for pi := range protos {
		for _, u := range protos[pi].idx {
			partOf[u] = int32(pi)
		}
	}
	for _, u := range comp {
		tgt, _ := view.Adj(u)
		for _, t := range tgt {
			if t > u && partOf[t] != partOf[u] {
				dst = append(dst, u)
				break
			}
		}
	}
	return dst
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
