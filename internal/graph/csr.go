package graph

import (
	"fmt"
	"math"
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
// safe for concurrent readers (it is immutable), and it deliberately has no
// mutators — mutate the source Graph and Compile again.
//
// Indexing: nodes are the source graph's IDs in ascending order, so index i
// corresponds to the i-th smallest NodeID and index order equals NodeID
// order everywhere (BFS/DFS tie-breaks, contraction ordering, quantile
// scans), which is what keeps the CSR kernels bit-for-bit equivalent to the
// map-path reference implementations. The same ordering is the NodeID→index
// lookup: the view carries no map, IndexOf searches ids (see indexIn).
type CSR struct {
	ids   []NodeID
	nodeW []float64

	// off/tgt/wts is the adjacency: node i's neighbors are
	// tgt[off[i]:off[i+1]] (ascending) with weights wts[off[i]:off[i+1]].
	off []int32
	tgt []int32
	wts []float64

	compOf []int32
	comps  [][]int32

	// multi marks the view of several fused graphs: ids ascend only within
	// each graph's span and may repeat across spans, so IndexOf answers -1.
	multi bool
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

// buildComponents labels each node with a component id. Components are
// numbered in order of their smallest member (matching Graph.Components) and
// each member list is ascending.
func (c *CSR) buildComponents() {
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
			for _, v := range c.tgt[c.off[u]:c.off[u+1]] {
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
	sizes := make([]int32, next)
	for _, cid := range c.compOf {
		sizes[cid]++
	}
	slab := make([]int32, n)
	base := int32(0)
	for cid, sz := range sizes {
		c.comps[cid] = slab[base : base : base+sz]
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
func (c *CSR) NumEdges() int { return len(c.tgt) / 2 }

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
	lo, hi := c.off[i], c.off[i+1]
	return c.tgt[lo:hi], c.wts[lo:hi]
}

// Adjacency returns the whole adjacency in CSR form: node i's neighbors are
// tgt[off[i]:off[i+1]] with weights wts[off[i]:off[i+1]]. Read-only views.
func (c *CSR) Adjacency() (off, tgt []int32, wts []float64) { return c.off, c.tgt, c.wts }

// Degree returns the number of edges incident to index i.
func (c *CSR) Degree(i int32) int { return int(c.off[i+1] - c.off[i]) }

// ComponentOf returns the component id of index i.
func (c *CSR) ComponentOf(i int32) int32 { return c.compOf[i] }

// Components returns each component's member indices, ascending within the
// component and ordered by smallest member across components. Read-only view.
func (c *CSR) Components() [][]int32 { return c.comps }

// Validate checks the view's internal invariants: monotone offsets, sorted
// in-range adjacency, symmetric weights, no self-loops, ascending unique
// IDs, and component labels closed under adjacency. It exists for tests and
// the CSR construction fuzz target.
func (c *CSR) Validate() error {
	n := len(c.ids)
	if len(c.nodeW) != n || len(c.off) != n+1 || len(c.compOf) != n {
		return errValidate("array lengths disagree with node count")
	}
	for i := 1; i < n; i++ {
		if c.ids[i-1] >= c.ids[i] {
			return errValidate("ids not strictly ascending")
		}
	}
	if n > 0 && c.off[0] != 0 {
		return errValidate("offsets do not start at 0")
	}
	for i := 0; i < n; i++ {
		if c.off[i] > c.off[i+1] {
			return errValidate("offsets not monotone")
		}
	}
	if int(c.off[n]) != len(c.tgt) || len(c.tgt) != len(c.wts) {
		return errValidate("adjacency lengths disagree with offsets")
	}
	for i := int32(0); i < int32(n); i++ {
		tgt, w := c.Adj(i)
		for k, v := range tgt {
			if v < 0 || v >= int32(n) {
				return errValidate("neighbor index out of range")
			}
			if v == i {
				return errValidate("self-loop")
			}
			if k > 0 && tgt[k-1] >= v {
				return errValidate("adjacency not strictly ascending")
			}
			// Bit comparison: symmetry means the same stored float both ways,
			// and it keeps NaN weights (legal in Graph) from false-failing.
			if back := c.weightOf(v, i); math.Float64bits(back) != math.Float64bits(w[k]) {
				return errValidate("asymmetric edge weight")
			}
			if c.compOf[v] != c.compOf[i] {
				return errValidate("edge crosses component boundary")
			}
		}
	}
	return nil
}

// weightOf returns the weight of edge {u, v} via binary search, 0 if absent.
func (c *CSR) weightOf(u, v int32) float64 {
	lo, hi := c.off[u], c.off[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.tgt[mid] < v:
			lo = mid + 1
		case c.tgt[mid] > v:
			hi = mid
		default:
			return c.wts[mid]
		}
	}
	return 0
}

func errValidate(msg string) error {
	return fmt.Errorf("graph: csr validate: %s", msg)
}
