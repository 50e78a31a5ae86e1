package graph

import (
	"slices"
)

// CSR is a frozen, index-based view of a Graph: the execution representation
// of the solve hot path. Where Graph is a mutable builder — a node table of
// separately allocated sorted rows keyed by NodeID —
// CSR packs the same topology into dense int32-indexed arrays — node weights,
// compressed-sparse-row adjacency with each node's neighbor list pre-sorted
// ascending, a connected-component id per node, and the ascending NodeID of
// every index — built once by Compile and never mutated afterwards.
//
// Unlike Graph's accessors, CSR accessors return internal slices without
// copying: callers must treat every returned slice as read-only. A CSR is
// safe for concurrent readers (it is immutable; its fingerprint is computed
// once, on first use, behind a sync.Once), and it deliberately has no
// mutators — Patch derives a new view from a Delta.
//
// Indexing: nodes are the source graph's IDs in ascending order, so index i
// corresponds to the i-th smallest NodeID and index order equals NodeID
// order everywhere (BFS tie-breaks, contraction ordering, quantile scans),
// which is what keeps the CSR kernels bit-for-bit equivalent to the map-path
// reference implementations in the tests. The same ordering is the NodeID→index
// lookup: the view carries no map, IndexOf searches ids (see indexIn).
type CSR struct {
	ids   []NodeID
	nodeW []float64

	// A component is the unit of row storage: node i's neighbors are
	// [lo[i], hi[i]) of slabs[compOf[i]] (ascending). A compiled or fused view
	// points every component at the one slab Fuse fills, with lo and hi two
	// windows of one offset array; a patched view shares the slab of every
	// component its delta left alone and gives each re-derived component its
	// own, so a slab stays reachable exactly as long as a live component
	// reads it.
	lo, hi []int32
	slabs  []*rowSlab
	nnz    int

	compOf []int32
	comps  [][]int32

	// multi marks the view of several fused graphs: ids ascend only within
	// each graph's span and may repeat across spans, so IndexOf answers -1.
	multi bool

	// fp is the fingerprint, computed on first use (fingerprint.go).
	fp viewFingerprint
}

// rowSlab is the adjacency storage of one or more components: neighbor
// indices and the matching edge weights.
type rowSlab struct {
	tgt []int32
	wts []float64
}

// row is the one row accessor: entries [lo, hi) of the slab.
func (s *rowSlab) row(lo, hi int32) ([]int32, []float64) {
	return s.tgt[lo:hi], s.wts[lo:hi]
}

// Compile freezes g into its CSR view: the fused view of one graph. The
// graph must not be mutated while the view is in use.
func (g *Graph) Compile() *CSR {
	return Fuse([]*Graph{g}).View
}

// indexIn returns the position of id in the ascending, duplicate-free ids, or
// -1 when absent: O(1) when ids is a dense range (the common generated-
// workload case), binary search otherwise.
func indexIn(ids []NodeID, id NodeID) int32 {
	n := len(ids)
	if n == 0 || id < ids[0] || id > ids[n-1] {
		return -1
	}
	if int(ids[n-1]-ids[0]) == n-1 {
		return int32(id - ids[0])
	}
	if i, ok := slices.BinarySearch(ids, id); ok {
		return int32(i)
	}
	return -1
}

// buildComponents labels each node of a view whose rows all live in s with a
// component id and points every component at s. Components are numbered in
// order of their smallest member and each member list is ascending.
func (c *CSR) buildComponents(s *rowSlab) {
	n := len(c.ids)
	c.compOf = make([]int32, n)
	for i := range c.compOf {
		c.compOf[i] = -1
	}
	stack := make([]int32, 0, 64)
	next := int32(0)
	for i := 0; i < n; i++ {
		if c.compOf[i] >= 0 {
			continue
		}
		id := next
		next++
		c.compOf[i] = id
		stack = append(stack[:0], int32(i))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tgt, _ := s.row(c.lo[u], c.hi[u])
			for _, v := range tgt {
				if c.compOf[v] < 0 {
					c.compOf[v] = id
					stack = append(stack, v)
				}
			}
		}
	}
	// Member lists carve one n-entry slab via counting sort: sizes → offsets
	// → capacity-clamped windows, filled by ascending node scan so each list
	// comes out ascending.
	c.comps = make([][]int32, next)
	c.slabs = make([]*rowSlab, next)
	sizes := make([]int32, next)
	for _, cid := range c.compOf {
		sizes[cid]++
	}
	slab := make([]int32, n)
	base := int32(0)
	for cid, sz := range sizes {
		c.comps[cid] = slab[base : base : base+sz]
		c.slabs[cid] = s
		base += sz
	}
	for i := 0; i < n; i++ {
		cid := c.compOf[i]
		c.comps[cid] = append(c.comps[cid], int32(i))
	}
}

// NumNodes reports the number of nodes.
func (c *CSR) NumNodes() int { return len(c.ids) }

// NumEdges reports the number of distinct undirected edges.
func (c *CSR) NumEdges() int { return c.nnz / 2 }

// IDs returns the NodeID of every index, ascending. Read-only view.
func (c *CSR) IDs() []NodeID { return c.ids }

// IDOf returns the NodeID at index i.
func (c *CSR) IDOf(i int32) NodeID { return c.ids[i] }

// IndexOf returns the dense index of id, or -1 when absent (always -1 on a
// multi-graph fused view, whose ids repeat across graphs).
func (c *CSR) IndexOf(id NodeID) int32 {
	if c.multi {
		return -1
	}
	return indexIn(c.ids, id)
}

// NodeWeights returns the weight of every index. Read-only view.
func (c *CSR) NodeWeights() []float64 { return c.nodeW }

// Adj returns node i's neighbor indices (ascending) and the matching edge
// weights. Read-only views.
func (c *CSR) Adj(i int32) (tgt []int32, w []float64) {
	return c.slabs[c.compOf[i]].row(c.lo[i], c.hi[i])
}

// Degree returns the number of edges incident to index i.
func (c *CSR) Degree(i int32) int { return int(c.hi[i] - c.lo[i]) }

// Components returns each component's member indices, ascending within the
// component and ordered by smallest member across components. Read-only view.
func (c *CSR) Components() [][]int32 { return c.comps }

// findEdge looks edge {u, v} up in u's row by binary search, returning its
// weight.
func (c *CSR) findEdge(u, v int32) (w float64, ok bool) {
	tgt, wts := c.Adj(u)
	if k, ok := slices.BinarySearch(tgt, v); ok {
		return wts[k], true
	}
	return 0, false
}
