package lpa

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"copmecs/internal/graph"
)

// CSRResult is the array-form outcome of CompressCSR: the contracted graph
// and all membership mappings as dense int32-indexed arrays, component-major.
// It is what the solver's hot path consumes directly — no maps, no per-node
// allocations — while Compress materialises the classic map-based Result
// from it for the builder-facing API.
type CSRResult struct {
	// Input is the compiled view the compression ran on.
	Input *graph.CSR

	// N is the number of super-nodes across all components.
	N int
	// NodeW is each super-node's weight (sum of member weights).
	NodeW []float64
	// Off/Tgt/W is the contracted CSR adjacency over global super indices;
	// each super's neighbor list is ascending.
	Off []int32
	Tgt []int32
	W   []float64
	// CompOff: component ci's super-nodes are [CompOff[ci], CompOff[ci+1]).
	// Within a component, supers are ordered by smallest original member;
	// components are ordered by smallest member, as in graph.Components.
	CompOff []int32
	// SuperOf maps each original node index to its global super index.
	SuperOf []int32
	// MemberOff/Members: super s's original node indices are
	// Members[MemberOff[s]:MemberOff[s+1]], ascending.
	MemberOff []int32
	Members   []int32
	// Labels is the raw per-node label from propagation (label spaces are
	// per-component, starting at 0); kept for diagnostics and the
	// map-path equivalence tests.
	Labels []int32
	// Rounds and Thresholds record each component's propagation outcome.
	Rounds     []int
	Thresholds []float64

	// NodesBefore/NodesAfter and EdgesBefore/EdgesAfter summarise the
	// compression (the paper's Table I columns).
	NodesBefore, NodesAfter int
	EdgesBefore, EdgesAfter int
}

// superEdge is one contracted edge between two local super-nodes.
type superEdge struct {
	a, b int32
	w    float64
}

// compOut is one component's compression outcome in local super numbering.
type compOut struct {
	k         int
	superW    []float64
	pairs     []superEdge
	rounds    int
	threshold float64
}

// dfsFrame is one node's in-progress adjacency scan during iterative DFS.
type dfsFrame struct {
	node int32
	k    int32
}

// compressScratch is the pooled per-worker workspace for the CSR kernels.
// All index arrays are sized to the full graph; epoch marking makes per-
// component reuse O(component) instead of O(n).
type compressScratch struct {
	order     []int32
	frames    []dfsFrame
	stack     []int32
	seen      []int32
	epoch     int32
	parent    []int32
	clusterOf []int32
	ws        []float64
	// sched and prev: propagate's heavy-neighbor schedule and label snapshot.
	sched   []int32
	prev    []int32
	pairKey map[int64]int32
	pairs   []superEdge
	// pairSlot/pairMark form an epoch-marked dense k×k pair index used in
	// place of pairKey when a component contracts to few enough supers; the
	// map stays for big components where k² would dwarf the edge count.
	pairSlot  []int32
	pairMark  []int32
	pairEpoch int32
	// superChunk/pairChunk are carve-forward arenas for the per-component
	// outputs, which outlive the component call (they escape into the
	// assembly stage). Windows are never rewound, so pooled
	// scratch reuse cannot clobber an escaped slab, and every fresh carve
	// region is still make-zeroed. Chunks start exactly sized and double
	// toward a cap, collapsing the two allocations per component into a
	// handful per compression pass.
	superChunk []float64
	pairChunk  []superEdge
}

// outChunkCap bounds the arena chunk size (and thus the slack a pooled
// scratch retains between compression passes).
const outChunkCap = 4096

// superSlab carves a zeroed k-entry super-weight slab.
func (s *compressScratch) superSlab(k int) []float64 {
	if cap(s.superChunk)-len(s.superChunk) < k {
		size := 2 * cap(s.superChunk)
		if size > outChunkCap {
			size = outChunkCap
		}
		if size < k {
			size = k
		}
		s.superChunk = make([]float64, 0, size)
	}
	off := len(s.superChunk)
	s.superChunk = s.superChunk[:off+k]
	return s.superChunk[off : off+k : off+k]
}

// pairSlab carves an m-entry contracted-edge slab.
func (s *compressScratch) pairSlab(m int) []superEdge {
	if cap(s.pairChunk)-len(s.pairChunk) < m {
		size := 2 * cap(s.pairChunk)
		if size > outChunkCap {
			size = outChunkCap
		}
		if size < m {
			size = m
		}
		s.pairChunk = make([]superEdge, 0, size)
	}
	off := len(s.pairChunk)
	s.pairChunk = s.pairChunk[:off+m]
	return s.pairChunk[off : off+m : off+m]
}

var compressScratchPool = sync.Pool{New: func() any { return new(compressScratch) }}

// ensure readies the scratch for a graph of n nodes.
func (s *compressScratch) ensure(n int) {
	if len(s.seen) < n {
		s.seen = make([]int32, n)
		s.parent = make([]int32, n)
		s.clusterOf = make([]int32, n)
		s.epoch = 0
	}
	if s.pairKey == nil {
		s.pairKey = make(map[int64]int32)
	}
}

// nextEpoch starts a new generation of marks. The counters are pooled and
// bumped once per component, so at serving rates they wrap, and a mark an
// earlier, larger graph left behind could pass for live: clear and restart.
func nextEpoch(epoch *int32, marks []int32) int32 {
	if *epoch == math.MaxInt32 {
		clear(marks)
		*epoch = 0
	}
	*epoch++
	return *epoch
}

// find is union-find lookup with path halving. Roots are always the class's
// smallest member because union keeps the smaller root (below), matching the
// map oracle's deterministic-root convention.
func (s *compressScratch) find(x int32) int32 {
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]]
		x = s.parent[x]
	}
	return x
}

// CompressCSR runs Algorithm 1 on a compiled graph view: per-component label
// propagation over the CSR arrays followed by contraction of directly
// connected same-label nodes, entirely on int32 index arrays. It is
// CompressCSRIncremental with nothing to reuse.
func CompressCSR(c *graph.CSR, opts Options) (*CSRResult, error) {
	return CompressCSRIncremental(c, opts, nil, nil)
}

// assembleCSRResult builds the global contracted arrays of res from the
// per-component outcomes. Recomputed and carried-over components produce
// identical outs, so one assembly keeps an incremental result bit-for-bit
// equal to a cold one. On entry res.Labels and res.SuperOf hold per-node
// labels and component-local super ids; assembly rebases SuperOf to global.
func assembleCSRResult(res *CSRResult, comps [][]int32, outs []compOut) {
	n := res.NodesBefore
	totalK, totalPairs := 0, 0
	for i, o := range outs {
		res.CompOff[i+1] = res.CompOff[i] + int32(o.k)
		totalK += o.k
		totalPairs += len(o.pairs)
		res.Rounds[i] = o.rounds
		res.Thresholds[i] = o.threshold
	}
	res.N = totalK
	res.NodesAfter = totalK
	res.EdgesAfter = totalPairs
	res.NodeW = make([]float64, 0, totalK)
	for _, o := range outs {
		res.NodeW = append(res.NodeW, o.superW...)
	}
	for i, comp := range comps {
		base := res.CompOff[i]
		for _, u := range comp {
			res.SuperOf[u] += base
		}
	}
	res.Off = make([]int32, totalK+1)
	deg := res.Off[1:]
	for i, o := range outs {
		base := res.CompOff[i]
		for _, p := range o.pairs {
			deg[base+p.a]++
			deg[base+p.b]++
		}
	}
	for s := 1; s <= totalK; s++ {
		res.Off[s] += res.Off[s-1]
	}
	res.Tgt = make([]int32, 2*totalPairs)
	res.W = make([]float64, 2*totalPairs)
	cursor := make([]int32, totalK)
	copy(cursor, res.Off[:totalK])
	// pairs are sorted by (a, b) with a < b, so every row's a-side neighbors
	// land before its b-side neighbors and both ascend: rows come out sorted.
	for i, o := range outs {
		base := res.CompOff[i]
		for _, p := range o.pairs {
			ga, gb := base+p.a, base+p.b
			res.Tgt[cursor[ga]], res.W[cursor[ga]] = gb, p.w
			cursor[ga]++
			res.Tgt[cursor[gb]], res.W[cursor[gb]] = ga, p.w
			cursor[gb]++
		}
	}
	// Member lists: ascending original-index scan keeps each list ascending.
	res.MemberOff = make([]int32, totalK+1)
	sizes := res.MemberOff[1:]
	for _, sup := range res.SuperOf {
		sizes[sup]++
	}
	for s := 1; s <= totalK; s++ {
		res.MemberOff[s] += res.MemberOff[s-1]
	}
	res.Members = make([]int32, n)
	mcursor := make([]int32, totalK)
	copy(mcursor, res.MemberOff[:totalK])
	for u := int32(0); u < int32(n); u++ {
		sup := res.SuperOf[u]
		res.Members[mcursor[sup]] = u
		mcursor[sup]++
	}
}

// compressComponentCSR runs propagation plus contraction for one component,
// writing per-node labels and local super assignments into the shared output
// arrays (components are disjoint index sets, so concurrent writes are safe).
func compressComponentCSR(c *graph.CSR, comp []int32, opts Options, labels, superOf []int32, s *compressScratch) compOut {
	threshold, order := s.prepare(c, comp, opts)
	rounds := s.propagate(c, comp, order, threshold, opts, labels)
	out := s.contract(c, comp, labels, superOf)
	out.rounds, out.threshold = rounds, threshold
	return out
}

// prepare resolves the component's coupling threshold and its visit order
// from the starter (maximum degree, ties toward the smallest node).
func (s *compressScratch) prepare(c *graph.CSR, comp []int32, opts Options) (threshold float64, order []int32) {
	threshold = opts.WeightThreshold
	if threshold == 0 {
		// The exact 0.75 edge-weight quantile of the component, by
		// quickselect (AutoThreshold semantics, no sort).
		s.ws = s.ws[:0]
		for _, u := range comp {
			tgt, w := c.Adj(u)
			for k, v := range tgt {
				if v > u {
					s.ws = append(s.ws, w[k])
				}
			}
		}
		threshold = quantile(s.ws, 0.75)
	}
	starter, bestDeg := comp[0], -1
	for _, u := range comp {
		if d := c.Degree(u); d > bestDeg {
			starter, bestDeg = u, d
		}
	}
	return threshold, s.traversalOrder(c, comp, starter, opts.Traversal)
}

// propagate is Algorithm 1's inner loop — up to βt rounds over the visit
// order, ending early once the update rate α falls to αt — and returns the
// number of rounds that loop runs. −1 in labels means unlabelled.
//
// Round 1 walks the full adjacency and labels every node; after it a light
// edge (w ≤ threshold), which can only label an unlabelled neighbor, does
// nothing. So round 1 also packs each node's heavy neighbors, in visit order,
// into s.sched, and rounds ≥ 2 stream that: the same writes in the same
// order, hence the same update counts, over a quarter of the edges.
//
// A round ≥ 2 is a pure function of the label vector it starts from. Once one
// ends on the vector it started from, every later round repeats it — same
// vector, same α, which has already failed the αt test — so the loop would
// run on to βt changing nothing: stop and report βt. Vectors cycling with a
// longer period run on to βt.
func (s *compressScratch) propagate(c *graph.CSR, comp, order []int32, threshold float64, opts Options, labels []int32) int {
	if cap(s.prev) < len(comp) {
		s.prev = make([]int32, len(comp))
	}
	prev := s.prev[:len(comp)]
	for i, u := range comp {
		labels[u] = -1
		prev[i] = -1
	}
	total := float64(len(comp))

	// sched holds one run per node: node, heavy-neighbor count, those neighbors.
	sched := s.sched[:0]
	nextLabel := int32(0)
	updates := 0
	for _, u := range order {
		lu := labels[u]
		if lu < 0 {
			// The starter, or a node no neighbor labelled first, opens a label.
			lu = nextLabel
			nextLabel++
			labels[u] = lu
			updates++
		}
		head := len(sched)
		sched = append(sched, u, 0)
		tgt, w := c.Adj(u)
		for k, v := range tgt {
			if w[k] > threshold {
				// Highly coupled: v joins u's cluster.
				sched = append(sched, v)
				if labels[v] != lu {
					labels[v] = lu
					updates++
				}
			} else if labels[v] < 0 {
				// Weak coupling: v opens its own label.
				labels[v] = nextLabel
				nextLabel++
				updates++
			}
		}
		sched[head+1] = int32(len(sched) - head - 2)
	}
	s.sched = sched

	for round := 1; ; round++ {
		if float64(updates)/total <= opts.MinUpdateRate || round == opts.MaxRounds {
			return round
		}
		// An unchanged snapshot: the round before was a fixed point.
		changed := false
		for i, u := range comp {
			if prev[i] != labels[u] {
				prev[i] = labels[u]
				changed = true
			}
		}
		if !changed {
			return opts.MaxRounds
		}
		updates = 0
		for i := 0; i < len(sched); {
			lu := labels[sched[i]]
			run := sched[i+2 : i+2+int(sched[i+1])]
			for _, v := range run {
				if labels[v] != lu {
					labels[v] = lu
					updates++
				}
			}
			i += 2 + len(run)
		}
	}
}

// contract merges directly connected same-label nodes into super-nodes:
// union-find over same-label edges, then cluster ids in ascending first-seen
// order (= smallest-member order, matching graph.Contract's super numbering).
func (s *compressScratch) contract(c *graph.CSR, comp []int32, labels, superOf []int32) compOut {
	for _, u := range comp {
		s.parent[u] = u
		s.clusterOf[u] = -1
	}
	for _, u := range comp {
		tgt, _ := c.Adj(u)
		for _, v := range tgt {
			if v > u && labels[u] == labels[v] {
				ra, rb := s.find(u), s.find(v)
				if ra < rb {
					s.parent[rb] = ra
				} else if rb < ra {
					s.parent[ra] = rb
				}
			}
		}
	}
	k := int32(0)
	for _, u := range comp {
		r := s.find(u)
		cl := s.clusterOf[r]
		if cl < 0 {
			cl = k
			k++
			s.clusterOf[r] = cl
		}
		superOf[u] = cl
	}
	out := compOut{k: int(k)}
	out.superW = s.superSlab(int(k))
	for _, u := range comp {
		out.superW[superOf[u]] += c.NodeWeights()[u]
	}

	// Contracted edges: accumulate per super-pair in the original (u, v)
	// edge order — the same order graph.Contract coalesces in — then sort
	// pairs for the CSR fill. Slot assignment order (pair first-seen order)
	// is identical through either index, so both produce the same pairs
	// slice; the dense index just skips the per-edge map probes for the
	// many-small-components regime.
	s.pairs = s.pairs[:0]
	const densePairCap = 64
	if k <= densePairCap {
		need := int(k) * int(k)
		if cap(s.pairSlot) < need {
			s.pairSlot = make([]int32, need)
			s.pairMark = make([]int32, need)
			s.pairEpoch = 0
		}
		slot, mark := s.pairSlot[:need], s.pairMark[:need]
		epoch := nextEpoch(&s.pairEpoch, s.pairMark)
		for _, u := range comp {
			tgt, w := c.Adj(u)
			for ki, v := range tgt {
				if v < u {
					continue
				}
				a, b := superOf[u], superOf[v]
				if a == b {
					continue // intra-cluster communication vanishes after merging
				}
				if a > b {
					a, b = b, a
				}
				d := a*k + b
				if mark[d] != epoch {
					mark[d] = epoch
					slot[d] = int32(len(s.pairs))
					s.pairs = append(s.pairs, superEdge{a: a, b: b})
				}
				s.pairs[slot[d]].w += w[ki]
			}
		}
	} else {
		clear(s.pairKey)
		for _, u := range comp {
			tgt, w := c.Adj(u)
			for ki, v := range tgt {
				if v < u {
					continue
				}
				a, b := superOf[u], superOf[v]
				if a == b {
					continue // intra-cluster communication vanishes after merging
				}
				if a > b {
					a, b = b, a
				}
				key := int64(a)<<32 | int64(b)
				slot, ok := s.pairKey[key]
				if !ok {
					slot = int32(len(s.pairs))
					s.pairKey[key] = slot
					s.pairs = append(s.pairs, superEdge{a: a, b: b})
				}
				s.pairs[slot].w += w[ki]
			}
		}
	}
	// Pair keys are unique — accumulation dedups through the pair index — so
	// the sorted sequence is a unique permutation.
	slices.SortFunc(s.pairs, func(x, y superEdge) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	out.pairs = s.pairSlab(len(s.pairs))
	copy(out.pairs, s.pairs)
	return out
}

// traversalOrder computes the BFS or DFS visit order from start over the
// component, neighbors ascending, exactly mirroring graph.BFSOrder /
// graph.DFSOrder (including the append of stranded nodes in ID order).
func (s *compressScratch) traversalOrder(c *graph.CSR, comp []int32, start int32, tr Traversal) []int32 {
	epoch := nextEpoch(&s.epoch, s.seen)
	s.order = s.order[:0]
	if tr == BFS {
		s.seen[start] = epoch
		s.order = append(s.order, start)
		for i := 0; i < len(s.order); i++ {
			tgt, _ := c.Adj(s.order[i])
			for _, v := range tgt {
				if s.seen[v] != epoch {
					s.seen[v] = epoch
					s.order = append(s.order, v)
				}
			}
		}
	} else {
		// Iterative preorder DFS equivalent to the recursive reference:
		// mark-and-emit on first touch, descend into the lowest unseen
		// neighbor, resume the parent's scan on return.
		s.seen[start] = epoch
		s.order = append(s.order, start)
		s.frames = append(s.frames[:0], dfsFrame{node: start})
		for len(s.frames) > 0 {
			f := &s.frames[len(s.frames)-1]
			tgt, _ := c.Adj(f.node)
			for int(f.k) < len(tgt) && s.seen[tgt[f.k]] == epoch {
				f.k++
			}
			if int(f.k) == len(tgt) {
				s.frames = s.frames[:len(s.frames)-1]
				continue
			}
			v := tgt[f.k]
			f.k++
			s.seen[v] = epoch
			s.order = append(s.order, v)
			s.frames = append(s.frames, dfsFrame{node: v})
		}
	}
	// Components are closed under adjacency, so this only fires on inputs
	// that are not genuine components (defensive parity with the map oracle).
	if len(s.order) < len(comp) {
		for _, u := range comp {
			if s.seen[u] != epoch {
				s.order = append(s.order, u)
			}
		}
	}
	return s.order
}
