package graph

import (
	"fmt"
	"math"
)

// The invariant checkers the package's tests run after every mutation,
// codec round trip and patch.

// Validate checks the graph's internal invariants: every row strictly
// ascending with one weight per neighbor, adjacency symmetry with equal
// weights both ways, no self-loops, consistent edge count, and a consistent
// total edge weight. Normal mutators
// preserve all of these.
func (g *Graph) Validate() error {
	// Row shape first: the symmetry pass below searches rows and indexes
	// their weights, which is only sound on well-formed ones.
	for u, rec := range g.nodes {
		if len(rec.nbr) != len(rec.w) {
			return fmt.Errorf("validate: node %d row holds %d neighbors, %d weights", u, len(rec.nbr), len(rec.w))
		}
		for i, v := range rec.nbr {
			if u == v {
				return fmt.Errorf("validate: %w at %d", ErrSelfLoop, u)
			}
			if i > 0 && rec.nbr[i-1] >= v {
				return fmt.Errorf("validate: node %d row not strictly ascending at %d", u, v)
			}
		}
	}
	count := 0
	var weight float64
	for u, rec := range g.nodes {
		for i, v := range rec.nbr {
			w := rec.w[i]
			other, ok := g.nodes[v]
			if !ok {
				return fmt.Errorf("validate: %w: edge {%d,%d} dangles", ErrNodeNotFound, u, v)
			}
			j, ok := other.find(u)
			if !ok {
				return fmt.Errorf("validate: edge {%d,%d} missing reverse entry", u, v)
			}
			if back := other.w[j]; back != w {
				return fmt.Errorf("validate: edge {%d,%d} weights differ: %g vs %g", u, v, w, back)
			}
			if u < v {
				count++
				weight += w
			}
		}
	}
	if count != g.edgeCount {
		return fmt.Errorf("validate: edge count %d, adjacency holds %d", g.edgeCount, count)
	}
	// The running total accumulates in mutation order, the recount in map
	// order; allow round-off proportional to the magnitude.
	if diff := weight - g.totalEdgeWeight; diff > 1e-6*(1+weight) || diff < -1e-6*(1+weight) {
		return fmt.Errorf("validate: total edge weight %g, adjacency sums to %g", g.totalEdgeWeight, weight)
	}
	return nil
}

// Validate checks the view's internal invariants: row windows inside their
// component's slab, sorted in-range adjacency, symmetric weights, no
// self-loops, ascending unique IDs, component labels closed under adjacency
// and member lists that partition the nodes in ascending order.
func (c *CSR) Validate() error {
	n := len(c.ids)
	if len(c.nodeW) != n || len(c.lo) != n || len(c.hi) != n || len(c.compOf) != n {
		return errValidate("array lengths disagree with node count")
	}
	if len(c.slabs) != len(c.comps) {
		return errValidate("slab count disagrees with component count")
	}
	for i := 1; i < n; i++ {
		if c.ids[i-1] >= c.ids[i] {
			return errValidate("ids not strictly ascending")
		}
	}
	members := 0
	for ci, comp := range c.comps {
		if s := c.slabs[ci]; s == nil || len(s.tgt) != len(s.wts) {
			return errValidate("component slab missing or ragged")
		}
		for k, u := range comp {
			if u < 0 || u >= int32(n) || c.compOf[u] != int32(ci) || (k > 0 && comp[k-1] >= u) {
				return errValidate("member list disagrees with component labels")
			}
		}
		if len(comp) == 0 || (ci > 0 && c.comps[ci-1][0] >= comp[0]) {
			return errValidate("components not ordered by smallest member")
		}
		members += len(comp)
	}
	if members != n {
		return errValidate("member lists do not partition the nodes")
	}
	nnz := 0
	for i := int32(0); i < int32(n); i++ {
		if lo, hi := c.lo[i], c.hi[i]; lo < 0 || lo > hi || int(hi) > len(c.slabs[c.compOf[i]].tgt) {
			return errValidate("row window outside its slab")
		}
		tgt, w := c.Adj(i)
		nnz += len(tgt)
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
			if c.compOf[v] != c.compOf[i] {
				return errValidate("edge crosses component boundary")
			}
			// Bit comparison: symmetry means the same stored float both ways,
			// and it keeps NaN weights (legal in Graph) from false-failing.
			if back, _ := c.findEdge(v, i); math.Float64bits(back) != math.Float64bits(w[k]) {
				return errValidate("asymmetric edge weight")
			}
		}
	}
	if nnz != c.nnz {
		return errValidate("entry count disagrees with rows")
	}
	return nil
}

func errValidate(msg string) error {
	return fmt.Errorf("graph: csr validate: %s", msg)
}
