package graph

// FusedCSR is the frozen CSR view of several graphs laid side by side: one
// shared ids/nodeW array pair and one row slab in which graph k occupies the
// contiguous node span [NodeBase[k], NodeBase[k+1]) and the contiguous
// component span [CompBase[k], CompBase[k+1]). Compile is Fuse of one
// graph; the solver compiles each graph of a round on its own, and the
// several-graph layout is kept for the benchmark's graph.fuse_us stage.
//
// Within each span the layout is exactly what Compile would have produced
// for that graph alone, shifted by the span base: node order is the graph's
// ascending NodeID order, adjacency lists stay ascending (a uniform shift
// preserves order), and components are numbered by smallest member. Every
// index-based kernel downstream is component-local, so running it over the
// fused view yields bit-for-bit the per-graph results.
//
// On a view of more than one graph IndexOf returns -1: fused NodeIDs are not
// globally unique — two graphs may reuse the same ids — so only span-relative
// positions are meaningful.
type FusedCSR struct {
	View *CSR
	// NodeBase has one entry per fused graph plus a final sentinel: graph
	// k's nodes are fused indices [NodeBase[k], NodeBase[k+1]).
	NodeBase []int32
	// CompBase is the matching component span: graph k's components are
	// [CompBase[k], CompBase[k+1]) in View.Components().
	CompBase []int32
}

// Fuse compiles gs into one fused CSR view; Compile is Fuse of one graph.
// Each graph must be non-nil and must not be mutated while the view is in
// use. Fuse is O(V + E): the graphs' rows are already ascending, so a
// compiled row is a copy — it builds no NodeID→index map and sorts nothing,
// and compiling a graph again costs what the first compile did.
func Fuse(gs []*Graph) *FusedCSR {
	totalN, totalNNZ := 0, 0
	for _, g := range gs {
		totalN += g.NumNodes()
		totalNNZ += 2 * g.NumEdges()
	}
	c := &CSR{
		ids:   make([]NodeID, 0, totalN),
		nodeW: make([]float64, 0, totalN),
		nnz:   totalNNZ,
		multi: len(gs) > 1,
	}
	// The single-slab layout: every row of every graph back to back, row i at
	// [off[i], off[i+1]).
	rows := &rowSlab{tgt: make([]int32, totalNNZ), wts: make([]float64, totalNNZ)}
	off := make([]int32, 1, totalN+1)
	f := &FusedCSR{View: c, NodeBase: make([]int32, 1, len(gs)+1)}

	pos := 0
	for _, g := range gs {
		base := int32(len(c.ids))
		ids := g.sortedNodes()
		c.ids = append(c.ids, ids...)
		for _, id := range ids {
			rec := g.rec(id)
			c.nodeW = append(c.nodeW, rec.weight)
			pos += fillRow(rows.tgt[pos:], rows.wts[pos:], rec, ids, base)
			off = append(off, int32(pos))
		}
		f.NodeBase = append(f.NodeBase, int32(len(c.ids)))
	}

	// No graph's edges cross its span, so the standard component DFS over
	// the fused arrays discovers exactly the per-graph components, numbered
	// graph-major and by smallest member within each graph.
	c.lo, c.hi = off[:totalN], off[1:]
	c.buildComponents(rows)
	f.CompBase = make([]int32, len(gs)+1)
	for k := range gs {
		lo := f.NodeBase[k]
		f.CompBase[k+1] = f.CompBase[k]
		if lo < f.NodeBase[k+1] {
			// Component ids are assigned in ascending first-member order, so
			// a span's component ids are contiguous; the span's maximum id
			// bounds its component range.
			maxComp := f.CompBase[k]
			for u := lo; u < f.NodeBase[k+1]; u++ {
				if c.compOf[u]+1 > maxComp {
					maxComp = c.compOf[u] + 1
				}
			}
			f.CompBase[k+1] = maxComp
		}
	}
	return f
}

// fillRow writes rec's row into the head of tgt/wts — neighbors as base-
// shifted positions in the graph's ascending ids, which ascend with the ids —
// and returns its length. On a dense id range a position is an offset
// subtraction.
func fillRow(tgt []int32, wts []float64, rec *nodeRec, ids []NodeID, base int32) int {
	if n := len(ids); n > 0 && int(ids[n-1]-ids[0]) == n-1 {
		first := ids[0]
		for i, nb := range rec.nbr {
			tgt[i] = base + int32(nb-first)
		}
	} else {
		for i, nb := range rec.nbr {
			tgt[i] = base + indexIn(ids, nb)
		}
	}
	return copy(wts, rec.w)
}
