package lpa

import (
	"errors"
	"math"
	"sync"

	"copmecs/internal/graph"
)

// Block is one component's compression outcome, self-contained and in local
// numbering: super-nodes 0..K−1 ordered by smallest member, adjacency over
// those ids, and member lists as positions in the component's member list
// (graph.CSR.Components). Nothing in it names a view index, so the block of
// a component is the block of that component in every view that holds it
// unchanged — a patched view's index shifts included — which is what lets
// the solver carry a clean component's block down a delta chain untouched.
// A block owns its arrays; none is shared with another block.
type Block struct {
	// NodeW is each super-node's weight (sum of member weights); its length
	// is K, the component's super-node count.
	NodeW []float64
	// Off/Tgt/W is the contracted CSR adjacency over local super ids; each
	// super's neighbor list is ascending.
	Off []int32
	Tgt []int32
	W   []float64
	// MemberOff/Members: super s absorbed the component members at positions
	// Members[MemberOff[s]:MemberOff[s+1]], ascending.
	MemberOff []int32
	Members   []int32
	// Labels is the raw propagation label of each member, by position (the
	// label space starts at 0 per component); nil for a block that was not
	// propagated.
	Labels []int32
	// Rounds and Threshold record the propagation outcome.
	Rounds    int
	Threshold float64
}

// CSRResult is the flat array form of a whole view's compression: every
// component's Block concatenated component-major into global super
// numbering, with membership mapped back to view indices. The solver works
// on blocks and never builds it; it serves callers that want one contracted
// graph or the Table I counts.
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
	// components are ordered by smallest member, as in graph.CSR.Components.
	CompOff []int32
	// SuperOf maps each original node index to its global super index.
	SuperOf []int32
	// MemberOff/Members: super s's original node indices are
	// Members[MemberOff[s]:MemberOff[s+1]], ascending.
	MemberOff []int32
	Members   []int32
	// Labels is the raw per-node label from propagation (label spaces are
	// per-component, starting at 0); kept for diagnostics and the map-oracle
	// equivalence tests.
	Labels []int32
	// Rounds and Thresholds record each component's propagation outcome.
	Rounds     []int
	Thresholds []float64

	// NodesBefore/NodesAfter and EdgesBefore/EdgesAfter summarise the
	// compression (the paper's Table I columns).
	NodesBefore, NodesAfter int
	EdgesBefore, EdgesAfter int

	// blocks are the per-component outcomes the arrays above concatenate,
	// and opts the defaulted options (Workers aside) they were computed
	// under: what CompressCSRIncremental carries forward, and the check that
	// it may.
	blocks []*Block
	opts   Options
}

// superEdge is one contracted edge between two local super-nodes.
type superEdge struct {
	a, b int32
	w    float64
}

// compressScratch is the pooled per-worker workspace for the CSR kernels.
// All index arrays are sized to the full graph; epoch marking makes per-
// component reuse O(component) instead of O(n).
type compressScratch struct {
	order     []int32
	seen      []int32
	epoch     int32
	parent    []int32
	clusterOf []int32
	ws        []float64
	// sched and prev: propagate's heavy-neighbor schedule and label snapshot;
	// contract parks the final labels, by position, in prev.
	sched []int32
	prev  []int32
	// pairs is a component's super-pairs in first-seen order, and pairIdx
	// the open-addressed index of their slots that contract probes.
	pairs   []superEdge
	pairIdx []int32
	// cursor is the fill cursor of a block's scatters.
	cursor []int32
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

// CompressCSR runs Algorithm 1 on a compiled graph view — per-component label
// propagation over the CSR arrays, then contraction of directly connected
// same-label nodes, entirely on int32 index arrays — and returns the flat
// form of every component's Block. It is CompressCSRIncremental with nothing
// to carry.
func CompressCSR(c *graph.CSR, opts Options) (*CSRResult, error) {
	return CompressCSRIncremental(c, opts, nil, nil)
}

// CompressComponent runs Algorithm 1 on component i of c (an index into
// c.Components()) and returns its block: the one compression primitive. A
// cold pass compresses every component, a pass over a patched view the ones
// its delta touched. A block depends on nothing but its own component, so
// components may be compressed concurrently, in any order.
func CompressComponent(c *graph.CSR, opts Options, i int) (*Block, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := compressScratchPool.Get().(*compressScratch)
	defer compressScratchPool.Put(s)
	s.ensure(c.NumNodes())
	return compressBlock(c, c.Components()[i], opts, s), nil
}

// CompressComponents is CompressComponent over the listed components, up to
// opts.Workers at a time; the blocks align with which.
func CompressComponents(c *graph.CSR, opts Options, which []int) ([]*Block, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	blocks, errs := make([]*Block, len(which)), make([]error, len(which))
	sem := make(chan struct{}, opts.Workers)
	var wg sync.WaitGroup
	for k, i := range which {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			blocks[k], errs[k] = CompressComponent(c, opts, i)
		}()
	}
	wg.Wait()
	return blocks, errors.Join(errs...)
}

// flatten concatenates the blocks of c's components into the global arrays
// of a CSRResult: super ids offset by the supers before them, member
// positions mapped through the view's member lists. A carried block and a
// recomputed one are the same values, so the flat form of an incremental
// pass is bit for bit that of a cold one.
func flatten(c *graph.CSR, opts Options, blocks []*Block) *CSRResult {
	comps, n := c.Components(), c.NumNodes()
	res := &CSRResult{
		Input:       c,
		CompOff:     make([]int32, len(blocks)+1),
		SuperOf:     make([]int32, n),
		Members:     make([]int32, n),
		Labels:      make([]int32, n),
		Rounds:      make([]int, len(blocks)),
		Thresholds:  make([]float64, len(blocks)),
		NodesBefore: n,
		EdgesBefore: c.NumEdges(),
		blocks:      blocks,
		opts:        opts,
	}
	nnz := 0
	for i, b := range blocks {
		res.CompOff[i+1] = res.CompOff[i] + int32(len(b.NodeW))
		nnz += len(b.Tgt)
		res.Rounds[i], res.Thresholds[i] = b.Rounds, b.Threshold
	}
	res.N = int(res.CompOff[len(blocks)])
	res.NodesAfter, res.EdgesAfter = res.N, nnz/2
	res.NodeW = make([]float64, 0, res.N)
	res.Off = make([]int32, 1, res.N+1)
	res.Tgt = make([]int32, 0, nnz)
	res.W = make([]float64, 0, nnz)
	res.MemberOff = make([]int32, 1, res.N+1)
	at := int32(0) // members placed so far: a component's are contiguous
	for i, b := range blocks {
		comp, base := comps[i], res.CompOff[i]
		res.NodeW = append(res.NodeW, b.NodeW...)
		edges := int32(len(res.Tgt))
		for _, e := range b.Off[1:] {
			res.Off = append(res.Off, edges+e)
		}
		for _, t := range b.Tgt {
			res.Tgt = append(res.Tgt, base+t)
		}
		res.W = append(res.W, b.W...)
		for s := range b.NodeW {
			for _, pos := range b.Members[b.MemberOff[s]:b.MemberOff[s+1]] {
				res.SuperOf[comp[pos]] = base + int32(s)
			}
			res.MemberOff = append(res.MemberOff, at+b.MemberOff[s+1])
		}
		for p, pos := range b.Members {
			res.Members[int(at)+p] = comp[pos]
		}
		for pos, l := range b.Labels {
			res.Labels[comp[pos]] = l
		}
		at += int32(len(comp))
	}
	return res
}

// compressBlock runs propagation plus contraction for one component and
// packs the outcome into its Block.
func compressBlock(c *graph.CSR, comp []int32, opts Options, s *compressScratch) *Block {
	threshold, order := s.prepare(c, comp, opts)
	rounds := s.propagate(c, comp, order, threshold, opts, s.clusterOf)
	b := s.contract(c, comp)
	b.Rounds, b.Threshold = rounds, threshold
	return b
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
	return threshold, s.traversalOrder(c, starter)
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

// contract merges directly connected same-label nodes into super-nodes —
// union-find over same-label edges, then cluster ids in ascending first-seen
// order (= smallest-member order, matching the map oracle's super numbering)
// — and packs the contracted component into a Block, in time linear in the
// component: one hashed pair index and scatter fills, no sort. The
// propagation labels arrive in clusterOf: the union step is their last
// per-node reader, so they then move out by position (the block's form) and
// the array takes the cluster ids.
func (s *compressScratch) contract(c *graph.CSR, comp []int32) *Block {
	labels := s.clusterOf
	for _, u := range comp {
		s.parent[u] = u
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
	if cap(s.prev) < len(comp) {
		s.prev = make([]int32, len(comp))
	}
	labelAt := s.prev[:len(comp)]
	for pos, u := range comp {
		labelAt[pos] = labels[u]
		s.clusterOf[u] = -1
	}
	// A node's super id lands in its own clusterOf slot: a root's slot holds
	// its cluster's id either way, and no lookup reads a non-root's.
	superOf := s.clusterOf
	k, edges := int32(0), 0
	for _, u := range comp {
		edges += c.Degree(u)
		r := s.find(u)
		cl := s.clusterOf[r]
		if cl < 0 {
			cl = k
			k++
			s.clusterOf[r] = cl
		}
		superOf[u] = cl
	}
	edges /= 2

	// Contracted edges: accumulate per super-pair in the original (u, v)
	// edge order — the same order the map oracle coalesces in — through one
	// open-addressed index of slot ids into s.pairs, which holds the keys.
	// A component of m edges contracts to at most min(m, k(k−1)/2) pairs;
	// the table is a power of two at least twice that, so probes stay short.
	s.pairs = s.pairs[:0]
	size := 1
	for maxPairs := min(int64(edges), int64(k)*int64(k-1)/2); int64(size) < 2*maxPairs; {
		size <<= 1
	}
	if cap(s.pairIdx) < size {
		s.pairIdx = make([]int32, size)
	}
	idx, mask := s.pairIdx[:size], uint32(size-1)
	clear(idx) // 0 is empty; slot i is stored as i+1
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
			h := (uint32(a)*0x9e3779b1 ^ uint32(b)) * 0x85ebca6b
			h ^= h >> 16
			for {
				h &= mask
				slot := idx[h] - 1
				if slot < 0 {
					slot = int32(len(s.pairs))
					idx[h] = slot + 1
					s.pairs = append(s.pairs, superEdge{a: a, b: b})
				} else if p := s.pairs[slot]; p.a != a || p.b != b {
					h++
					continue
				}
				s.pairs[slot].w += w[ki]
				break
			}
		}
	}

	// The block's arrays are two allocations of its own, carved by kind.
	nk, m := int(k), len(s.pairs)
	ints := make([]int32, 2*(nk+1)+2*m+2*len(comp))
	carve := func(n int) []int32 {
		w := ints[:n:n]
		ints = ints[n:]
		return w
	}
	floats := make([]float64, nk+2*m)
	b := &Block{
		NodeW: floats[:nk:nk], W: floats[nk:],
		Off: carve(nk + 1), Tgt: carve(2 * m),
		MemberOff: carve(nk + 1), Members: carve(len(comp)), Labels: carve(len(comp)),
	}
	nodeW := c.NodeWeights()
	for _, u := range comp {
		b.NodeW[superOf[u]] += nodeW[u]
		b.MemberOff[superOf[u]+1]++
	}
	copy(b.Labels, labelAt)
	for _, p := range s.pairs {
		b.Off[p.a+1]++
		b.Off[p.b+1]++
	}
	for sup := 0; sup < nk; sup++ {
		b.Off[sup+1] += b.Off[sup]
		b.MemberOff[sup+1] += b.MemberOff[sup]
	}
	if cap(s.cursor) < nk {
		s.cursor = make([]int32, nk)
	}
	cursor := s.cursor[:nk]
	// Rows fill in three scatters, no comparison sort. A row r holds its
	// lower neighbors (< r), then its upper ones. (1) Each pair drops its
	// smaller end into the larger end's lower half, in pair order. (2) Rows
	// in ascending order move every lower entry into that neighbor's upper
	// half, so upper halves fill ascending; a row's cursor still marks its
	// lower end when the scan reaches it, since only later rows write to
	// it. (3) Rows in ascending order move their upper entries back into
	// the lower halves, which so fill ascending; by the time the scan
	// reaches a row, every smaller row has filled its lower half.
	copy(cursor, b.Off)
	for _, p := range s.pairs {
		b.Tgt[cursor[p.b]], b.W[cursor[p.b]] = p.a, p.w
		cursor[p.b]++
	}
	for r := int32(0); r < k; r++ {
		for i := b.Off[r]; i < cursor[r]; i++ {
			a := b.Tgt[i]
			b.Tgt[cursor[a]], b.W[cursor[a]] = r, b.W[i]
			cursor[a]++
		}
	}
	copy(cursor, b.Off)
	for r := int32(0); r < k; r++ {
		for i := cursor[r]; i < b.Off[r+1]; i++ {
			up := b.Tgt[i]
			b.Tgt[cursor[up]], b.W[cursor[up]] = r, b.W[i]
			cursor[up]++
		}
	}
	// Member lists: the ascending position scan keeps each list ascending.
	copy(cursor, b.MemberOff)
	for pos, u := range comp {
		sup := superOf[u]
		b.Members[cursor[sup]] = int32(pos)
		cursor[sup]++
	}
	return b
}

// traversalOrder computes the breadth-first visit order from start over its
// component, neighbors ascending. A component is closed under adjacency, so
// the order holds every member.
func (s *compressScratch) traversalOrder(c *graph.CSR, start int32) []int32 {
	epoch := nextEpoch(&s.epoch, s.seen)
	s.seen[start] = epoch
	s.order = append(s.order[:0], start)
	for i := 0; i < len(s.order); i++ {
		tgt, _ := c.Adj(s.order[i])
		for _, v := range tgt {
			if s.seen[v] != epoch {
				s.seen[v] = epoch
				s.order = append(s.order, v)
			}
		}
	}
	return s.order
}
