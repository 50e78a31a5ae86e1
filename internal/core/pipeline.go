package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"copmecs/internal/graph"
	"copmecs/internal/lpa"
	"copmecs/internal/spectral"
)

// csrJob is one cut job of the pipeline: a sub-graph (one compressed
// component, or one raw component under DisableCompression) in local CSR
// form over ids 0..n−1. Local ids ascend with the external ids they stand
// for, so every ordering decision (ties, scans, summations) agrees with the
// map-pipeline oracle bit for bit.
type csrJob struct {
	n     int
	off   []int32
	tgt   []int32
	w     []float64
	nodeW []float64

	// cr/base identify the compressed component: local super s is global
	// super base+s of cr. nil when running uncompressed.
	cr   *lpa.CSRResult
	base int32
	// ids maps local id → original NodeID when uncompressed (nil otherwise;
	// compressed jobs use the contracted super numbering 0..n−1 directly,
	// matching the contracted sub-graphs lpa.Compress materialises).
	ids []graph.NodeID
	// vidx maps local id → index in the backing CSR view when uncompressed
	// (nil for compressed jobs, whose members live in cr.Members already).
	vidx []int32
}

// extID returns the NodeID that local id v carries in the engine-facing
// graph: the contracted super id for compressed jobs, the original NodeID
// for raw components. Both mappings are strictly increasing in v.
func (j *csrJob) extID(v int32) graph.NodeID {
	if j.cr != nil {
		return graph.NodeID(v)
	}
	return j.ids[v]
}

// localOf inverts extID.
func (j *csrJob) localOf(id graph.NodeID) int32 {
	if j.cr != nil {
		return int32(id)
	}
	return int32(sort.Search(len(j.ids), func(i int) bool { return j.ids[i] >= id }))
}

// nnz returns the job's stored adjacency entry count (2× its edge count).
func (j *csrJob) nnz() int { return int(j.off[j.n]) }

// csrJobsUncompressed builds one raw-component job per component of the view.
func csrJobsUncompressed(c *graph.CSR) []csrJob {
	// Job arrays are carved from per-array slabs sized by the view's totals:
	// one allocation per array kind instead of one per job, which matters
	// when a fused view holds hundreds of small components.
	comps := c.Components()
	jobs := make([]csrJob, 0, len(comps))
	n := c.NumNodes()
	totNNZ := 2 * c.NumEdges()
	localOf := make([]int32, n)
	for _, comp := range comps {
		for li, u := range comp {
			localOf[u] = int32(li)
		}
	}
	offSlab := make([]int32, 0, n+len(comps))
	idSlab := make([]graph.NodeID, 0, n)
	vidxSlab := make([]int32, 0, n)
	nodeWSlab := make([]float64, 0, n)
	tgtSlab := make([]int32, 0, totNNZ)
	wSlab := make([]float64, 0, totNNZ)
	nodeW := c.NodeWeights()
	for _, comp := range comps {
		k := len(comp)
		job := csrJob{
			n:     k,
			off:   offSlab[len(offSlab) : len(offSlab) : len(offSlab)+k+1],
			ids:   idSlab[len(idSlab) : len(idSlab) : len(idSlab)+k],
			vidx:  vidxSlab[len(vidxSlab) : len(vidxSlab) : len(vidxSlab)+k],
			nodeW: nodeWSlab[len(nodeWSlab) : len(nodeWSlab) : len(nodeWSlab)+k],
		}
		job.off = append(job.off, 0)
		nnz := 0
		for _, u := range comp {
			job.ids = append(job.ids, c.IDOf(u))
			job.vidx = append(job.vidx, u)
			job.nodeW = append(job.nodeW, nodeW[u])
			nnz += c.Degree(u)
			job.off = append(job.off, int32(nnz))
		}
		job.tgt = tgtSlab[len(tgtSlab) : len(tgtSlab) : len(tgtSlab)+nnz]
		job.w = wSlab[len(wSlab) : len(wSlab) : len(wSlab)+nnz]
		for _, u := range comp {
			tgt, w := c.Adj(u)
			for e, v := range tgt {
				job.tgt = append(job.tgt, localOf[v])
				job.w = append(job.w, w[e])
			}
		}
		offSlab = offSlab[:len(offSlab)+k+1]
		idSlab = idSlab[:len(idSlab)+k]
		vidxSlab = vidxSlab[:len(vidxSlab)+k]
		nodeWSlab = nodeWSlab[:len(nodeWSlab)+k]
		tgtSlab = tgtSlab[:len(tgtSlab)+nnz]
		wSlab = wSlab[:len(wSlab)+nnz]
		jobs = append(jobs, job)
	}
	return jobs
}

// csrJobsFromCompressed builds one contracted job per component of a
// compression result, in component order.
func csrJobsFromCompressed(cr *lpa.CSRResult) []csrJob {
	nComp := len(cr.CompOff) - 1
	jobs := make([]csrJob, 0, nComp)
	totalK := int(cr.CompOff[nComp])
	offSlab := make([]int32, totalK+nComp)
	tgtSlab := make([]int32, len(cr.Tgt))
	offAt, tgtAt := 0, 0
	for ci := 0; ci < nComp; ci++ {
		base, end := cr.CompOff[ci], cr.CompOff[ci+1]
		k := int(end - base)
		job := csrJob{n: k, cr: cr, base: base, nodeW: cr.NodeW[base:end]}
		// A component's supers are contiguous, so its adjacency is one
		// contiguous span of the global arrays; rebase it to local ids.
		// The weights need no rebasing at all and alias the global array.
		lo := cr.Off[base]
		job.off = offSlab[offAt : offAt+k+1 : offAt+k+1]
		offAt += k + 1
		for li := 0; li <= k; li++ {
			job.off[li] = cr.Off[int(base)+li] - lo
		}
		nnz := int(job.off[k])
		job.tgt = tgtSlab[tgtAt : tgtAt+nnz : tgtAt+nnz]
		tgtAt += nnz
		job.w = cr.W[lo : int(lo)+nnz]
		for e := 0; e < nnz; e++ {
			job.tgt[e] = cr.Tgt[int(lo)+e] - base
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// graphPipeline is one graph's pipeline outcome — user-independent part
// templates plus the compression counters — and the unit a Session caches.
type graphPipeline struct {
	protos                 []protoPart
	nodesAfter, edgesAfter int
	// delta is what the next SolveDelta against this graph patches from; nil
	// unless the graph was pipelined over its own compiled view (SolveDelta
	// does that; fused rounds share a view no delta can patch).
	delta *solveState
}

// compSolveState is one component's cut outcome: the block lists recursive
// bisection produced (local ids, valid for any bit-identical component) and
// the Lanczos iterations spent producing them.
type compSolveState struct {
	blocks [][]int32
	iters  int
}

// solveState is the replayable pipeline state of one view: the view itself,
// its compression (nil when compression is disabled), and the per-component
// outcomes aligned with the view's Components().
type solveState struct {
	view  *graph.FusedCSR
	cr    *lpa.CSRResult
	comps []compSolveState
}

// singleSpan presents one compiled graph as a fused view of one span, the
// shape runPipeline takes.
func singleSpan(c *graph.CSR) *graph.FusedCSR {
	return &graph.FusedCSR{
		View:     c,
		NodeBase: []int32{0, int32(c.NumNodes())},
		CompBase: []int32{0, int32(len(c.Components()))},
	}
}

// runPipeline is the one pipeline driver: Algorithm 1 compression, then the
// cut stage, over every component of f's view, demultiplexed into one
// graphPipeline per span. Every kernel it runs is component-local and every
// component belongs to exactly one span, so each graph's templates are
// bit-identical however the view was put together — alone, fused with
// others, or patched.
//
// prev and oldCompOf (graph.PatchInfo.OldCompOf) name the predecessor of a
// patched view: a component with a clean predecessor carries its compression
// over and replays its recorded blocks; every other component — all of them
// when prev is nil — runs compress → partition. The returned state records
// every component's outcome, so any run can be the predecessor of the next.
func runPipeline(ctx context.Context, opts Options, f *graph.FusedCSR, prev *solveState, oldCompOf []int32) ([]graphPipeline, *solveState, error) {
	st := &solveState{view: f}
	var jobs []csrJob
	if opts.DisableCompression {
		jobs = csrJobsUncompressed(f.View)
	} else {
		lopts := opts.LPA
		if lopts.Workers == 0 {
			// Inherit the solver's parallelism so Workers=1 (the Fig. 9
			// "without Spark" mode) is serial end to end.
			lopts.Workers = opts.Workers
		}
		var prevCR *lpa.CSRResult
		if prev != nil {
			prevCR = prev.cr
		}
		cr, err := lpa.CompressCSRIncremental(f.View, lopts, prevCR, oldCompOf)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		st.cr = cr
		jobs = csrJobsFromCompressed(cr)
	}
	if oldCompOf != nil && len(oldCompOf) != len(jobs) {
		return nil, nil, fmt.Errorf("core: %d jobs for %d components", len(jobs), len(oldCompOf))
	}

	st.comps = make([]compSolveState, len(jobs))
	dirty := make([]int, 0, len(jobs))
	for i := range jobs {
		if oldCompOf != nil && oldCompOf[i] >= 0 {
			st.comps[i] = prev.comps[oldCompOf[i]]
		} else {
			dirty = append(dirty, i)
		}
	}
	if err := cutJobs(ctx, opts, jobs, dirty, st.comps); err != nil {
		return nil, nil, err
	}

	// Demux: span k owns jobs (= components) [CompBase[k], CompBase[k+1]).
	out := make([]graphPipeline, f.Graphs())
	ids := f.View.IDs()
	var sc protoScratch
	sc.prime(f.View.NumNodes(), len(jobs))
	for k := range out {
		gp := &out[k]
		total := 0
		for ci := f.CompBase[k]; ci < f.CompBase[k+1]; ci++ {
			total += len(st.comps[ci].blocks)
		}
		gp.protos = make([]protoPart, 0, total)
		for ci := f.CompBase[k]; ci < f.CompBase[k+1]; ci++ {
			j := &jobs[ci]
			gp.nodesAfter += j.n
			gp.edgesAfter += j.nnz() / 2
			gp.protos = appendJobProtos(gp.protos, j, st.comps[ci].blocks, ids, f.NodeBase[k], &sc)
		}
	}
	return out, st, nil
}

// protoScratch is the reusable workspace for appendJobProtos: the per-node
// block assignment and carve-forward chunk arenas for the small slabs that
// escape into protos (node lists, index lists, bisection edge pairs).
// Callers loop over jobs serially and own one instance.
//
// The chunks are carve-only: a window, once handed out, is never rewound or
// reused, so escaping windows stay valid even after the arena moves on to a
// fresh chunk. One pipeline run's worth of per-job slabs collapses into a
// handful of chunk allocations.
type protoScratch struct {
	blockOf []int32

	nodeChunk []graph.NodeID
	idxChunk  []int32
	peChunk   []PartEdge
}

// protoChunkSize is the arena chunk granularity. Large enough to amortise
// dozens of per-job slabs per allocation, small enough that a solution
// pinning its chunk holds only a few KiB of slack.
const protoChunkSize = 2048

// prime sizes the arenas for one pipeline run so they never overshoot:
// every job's node and index slabs together cover the run's original nodes
// exactly once, and each bisected job carves at most one two-entry edge
// pair.
func (sc *protoScratch) prime(nodes, jobs int) {
	if cap(sc.nodeChunk) < nodes {
		sc.nodeChunk = make([]graph.NodeID, 0, nodes)
	}
	if cap(sc.idxChunk) < nodes {
		sc.idxChunk = make([]int32, 0, nodes)
	}
	if cap(sc.peChunk) < 2*jobs {
		sc.peChunk = make([]PartEdge, 0, 2*jobs)
	}
}

// nodeSlab carves a zero-length, capacity-n window for one job's node lists.
func (sc *protoScratch) nodeSlab(n int) []graph.NodeID {
	if cap(sc.nodeChunk)-len(sc.nodeChunk) < n {
		size := protoChunkSize
		if n > size {
			size = n
		}
		sc.nodeChunk = make([]graph.NodeID, 0, size)
	}
	off := len(sc.nodeChunk)
	sc.nodeChunk = sc.nodeChunk[:off+n]
	return sc.nodeChunk[off : off : off+n]
}

// idxSlab is nodeSlab for the graph-local index lists.
func (sc *protoScratch) idxSlab(n int) []int32 {
	if cap(sc.idxChunk)-len(sc.idxChunk) < n {
		size := protoChunkSize
		if n > size {
			size = n
		}
		sc.idxChunk = make([]int32, 0, size)
	}
	off := len(sc.idxChunk)
	sc.idxChunk = sc.idxChunk[:off+n]
	return sc.idxChunk[off : off : off+n]
}

// pePair carves the two-entry cross-edge slab a bisected job records.
func (sc *protoScratch) pePair() []PartEdge {
	if cap(sc.peChunk)-len(sc.peChunk) < 2 {
		sc.peChunk = make([]PartEdge, 0, protoChunkSize)
	}
	off := len(sc.peChunk)
	sc.peChunk = sc.peChunk[:off+2]
	return sc.peChunk[off : off+2 : off+2]
}

// appendJobProtos expands one cut job's blocks into proto parts and appends
// them to protos: per-block original-node expansion, pairwise cross weights,
// the lightest-part-local initial placement, and two-way sibling links.
// Proto adjacency indexes within the final protos slice of the same graph
// (base-relative), exactly as the map-pipeline oracle emits it.
//
// ids is the backing view's index→NodeID array and rebase the graph's node
// offset within it (0 for a single-span view). Each proto records its
// members both as NodeIDs and as graph-local CSR indices — the evaluator's
// input. sc is the caller's reusable workspace.
func appendJobProtos(protos []protoPart, j *csrJob, blocks [][]int32, ids []graph.NodeID, rebase int32, sc *protoScratch) []protoPart {
	// All blocks together cover the job's original nodes exactly once, so
	// the per-block node and index lists each carve one exactly-sized slab
	// from the scratch arena instead of allocating per block.
	totN := j.n
	if j.cr != nil {
		totN = int(j.cr.MemberOff[j.base+int32(j.n)] - j.cr.MemberOff[j.base])
	}
	nodesSlab := sc.nodeSlab(totN)
	idxBuf := sc.idxSlab(totN)
	expand := func(side []int32) ([]graph.NodeID, []int32, float64) {
		var work float64
		start := len(idxBuf)
		for _, s := range side {
			work += j.nodeW[s]
			if j.cr != nil {
				g := j.base + s
				for _, u := range j.cr.Members[j.cr.MemberOff[g]:j.cr.MemberOff[g+1]] {
					idxBuf = append(idxBuf, u-rebase)
				}
			} else {
				idxBuf = append(idxBuf, j.vidx[s]-rebase)
			}
		}
		gidx := idxBuf[start:len(idxBuf):len(idxBuf)]
		// Graph-local index order is NodeID order (both ascend together), so
		// sorting the indices yields the node ordering the oracle produces
		// by sorting NodeIDs.
		slices.Sort(gidx)
		nstart := len(nodesSlab)
		for _, li := range gidx {
			nodesSlab = append(nodesSlab, ids[rebase+li])
		}
		return nodesSlab[nstart:len(nodesSlab):len(nodesSlab)], gidx, work
	}

	base := len(protos)
	if cap(sc.blockOf) < j.n {
		sc.blockOf = make([]int32, j.n)
	}
	blockOf := sc.blockOf[:j.n]
	lightest, lightestWork := -1, 0.0
	for bi, block := range blocks {
		nodes, gidx, work := expand(block)
		protos = append(protos, protoPart{
			nodes: nodes, idx: gidx, work: work, sibling: -1, remote: true,
		})
		for _, id := range block {
			blockOf[id] = int32(bi)
		}
		if lightest < 0 || work < lightestWork {
			lightest, lightestWork = bi, work
		}
	}
	// Pairwise communication between blocks of this sub-graph. The scan
	// runs u ascending, v>u ascending — the same sequence as the oracle's
	// Edges() loop, so per-pair float sums match exactly.
	switch {
	case len(blocks) == 2:
		// Bisection (the default MaxParts): one pair, summed directly in
		// scan order — the map below would accumulate the same floats in
		// the same sequence under a single key.
		var w float64
		found := false
		for u := int32(0); u < int32(j.n); u++ {
			for e := j.off[u]; e < j.off[u+1]; e++ {
				v := j.tgt[e]
				if v < u || blockOf[u] == blockOf[v] {
					continue
				}
				w += j.w[e]
				found = true
			}
		}
		if found {
			pe := sc.pePair()
			pe[0] = PartEdge{Other: base + 1, Weight: w}
			pe[1] = PartEdge{Other: base, Weight: w}
			protos[base].adj = pe[:1:1]
			protos[base+1].adj = pe[1:2]
		} else {
			w = 0
		}
		protos[base+lightest].remote = false
		protos[base].sibling = base + 1
		protos[base+1].sibling = base
		protos[base].crossWeight = w
		protos[base+1].crossWeight = w
	case len(blocks) > 2:
		cross := make(map[[2]int]float64)
		for u := int32(0); u < int32(j.n); u++ {
			for e := j.off[u]; e < j.off[u+1]; e++ {
				v := j.tgt[e]
				if v < u {
					continue
				}
				a, b := int(blockOf[u]), int(blockOf[v])
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				cross[[2]int{a, b}] += j.w[e]
			}
		}
		for pair, w := range cross {
			pa, pb := base+pair[0], base+pair[1]
			protos[pa].adj = append(protos[pa].adj, PartEdge{Other: pb, Weight: w})
			protos[pb].adj = append(protos[pb].adj, PartEdge{Other: pa, Weight: w})
		}
		for bi := range blocks {
			sortPartEdges(protos[base+bi].adj)
		}
		// Algorithm 2's initial scheme generalised: the lightest part
		// stays on the device, every other part offloads.
		protos[base+lightest].remote = false
	}
	return protos
}

// splitScratch is the reusable workspace of the cut stage: rank and
// epoch-membership marks over a job's local ids, the induced-CSR assembly
// arrays of one block split, and the arenas block lists are carved from. The
// serial cut stage shares one across every job; the parallel one pools them,
// one per job driver and one per in-flight split.
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
	// escape into block slices. Windows are never rewound, so pooled reuse
	// of the scratch cannot clobber a live block. blockChunk is the same
	// arena idea for the per-job block header slices.
	sideChunk  []int32
	blockChunk [][]int32
}

// sideSlab carves an n-length window for one split's two side lists. The
// first chunk is sized exactly (a fresh scratch bisecting once must not
// overshoot a tiny job); replacement chunks double toward the cap so a
// scratch shared across a whole round amortises quickly.
func (sc *splitScratch) sideSlab(n int) []int32 {
	if cap(sc.sideChunk)-len(sc.sideChunk) < n {
		size := 2 * cap(sc.sideChunk)
		if size > protoChunkSize {
			size = protoChunkSize
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
		if size > protoChunkSize {
			size = protoChunkSize
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

// splitBlock bisects one block of j with the given engine, reporting the
// Lanczos iterations it cost (zero for engines that run none). It is a pure
// function of (j, block, engine) — scratch only carries reusable buffers —
// which is what lets the parallel cut stage run speculative splits on any
// worker with bit-identical results.
func splitBlock(ctx context.Context, j *csrJob, block []int32, engine Engine, sc *splitScratch) (sideA, sideB []int32, iters int, err error) {
	if spec, ok := engine.(SpectralEngine); ok {
		sideA, sideB, err = splitSpectralBlock(j, block, spec, &iters, sc)
	} else {
		sideA, sideB, err = splitMaterializedBlock(ctx, j, block, engine, sc)
	}
	return sideA, sideB, iters, err
}

// splitSpectralBlock bisects one block with the CSR-native spectral path:
// members renumbered by rank into an induced CSR (the rank map is monotone,
// so adjacency stays ascending without re-sorting), then
// spectral.BisectCSRInto. iters accumulates the Lanczos iteration count.
func splitSpectralBlock(j *csrJob, block []int32, spec SpectralEngine, iters *int, sc *splitScratch) (sideA, sideB []int32, err error) {
	sc.ensure(j.n)
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
		for e := j.off[id]; e < j.off[id+1]; e++ {
			if sc.mark[j.tgt[e]] == sc.epoch {
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
		for e := j.off[id]; e < j.off[id+1]; e++ {
			if v := j.tgt[e]; sc.mark[v] == sc.epoch {
				sc.itgt[p] = sc.pos[v]
				sc.iw[p] = j.w[e]
				p++
			}
		}
	}
	// BisectCSRInto fills the scratch-carved slab with member ranks;
	// translating rank→local id in place turns them into the block side
	// lists without a second slab. Sides are never appended to downstream.
	sopts := spec.spectralOptions()
	sopts.Eigen.Lanczos.IterOut = iters
	sideA, sideB, err = spectral.BisectCSRInto(sc.ioff, sc.itgt, sc.iw, sc.sideSlab(n), sopts)
	if err != nil {
		return nil, nil, fmt.Errorf("spectral engine: %w", err)
	}
	for i, r := range sideA {
		sideA[i] = sorted[r]
	}
	for i, r := range sideB {
		sideB[i] = sorted[r]
	}
	return sideA, sideB, nil
}

// splitMaterializedBlock bisects one block via an engine that takes a
// *graph.Graph, materialising the block with the same node ids the
// map-pipeline oracle hands it.
func splitMaterializedBlock(ctx context.Context, j *csrJob, block []int32, engine Engine, sc *splitScratch) (sideA, sideB []int32, err error) {
	sc.ensure(j.n)
	sorted := make([]int32, len(block))
	copy(sorted, block)
	slices.Sort(sorted)
	sc.epoch++
	for _, id := range sorted {
		sc.mark[id] = sc.epoch
	}
	sub := graph.New(len(sorted))
	for _, id := range sorted {
		if err := sub.AddNode(j.extID(id), j.nodeW[id]); err != nil {
			return nil, nil, err
		}
	}
	for _, id := range sorted {
		for e := j.off[id]; e < j.off[id+1]; e++ {
			if v := j.tgt[e]; v > id && sc.mark[v] == sc.epoch {
				if err := sub.AddEdge(j.extID(id), j.extID(v), j.w[e]); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	extA, extB, err := engine.Bisect(ctx, sub)
	if err != nil {
		return nil, nil, err
	}
	sideA = make([]int32, len(extA))
	for i, id := range extA {
		sideA[i] = j.localOf(id)
	}
	sideB = make([]int32, len(extB))
	for i, id := range extB {
		sideB[i] = j.localOf(id)
	}
	return sideA, sideB, nil
}
