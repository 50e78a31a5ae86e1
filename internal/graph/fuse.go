package graph

// FusedCSR is the frozen CSR view of several graphs laid side by side: one
// shared ids/nodeW/off/tgt/wts array set in which graph k occupies the
// contiguous node span [NodeBase[k], NodeBase[k+1]) and the contiguous
// component span [CompBase[k], CompBase[k+1]). The batch solver compiles a
// whole round of small graphs into one such mega-instance so compression,
// spectral cuts and evaluation run as single passes over flat arrays instead
// of per-graph pipeline invocations.
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

// Graphs reports how many graphs were fused.
func (f *FusedCSR) Graphs() int { return len(f.NodeBase) - 1 }

// Fuse compiles gs into one fused CSR view; Compile is Fuse of one graph.
// Each graph must be non-nil and must not be mutated while the view is in
// use. Fuse is O(V + E) plus a per-row sort: it builds no NodeID→index map —
// neighbor resolution runs over each graph's ascending id span directly.
func Fuse(gs []*Graph) *FusedCSR {
	totalN, totalNNZ := 0, 0
	for _, g := range gs {
		totalN += g.NumNodes()
		totalNNZ += 2 * g.NumEdges()
	}
	c := &CSR{
		ids:   make([]NodeID, 0, totalN),
		nodeW: make([]float64, 0, totalN),
		off:   make([]int32, 1, totalN+1),
		tgt:   make([]int32, totalNNZ),
		wts:   make([]float64, totalNNZ),
		multi: len(gs) > 1,
	}
	f := &FusedCSR{View: c, NodeBase: make([]int32, 1, len(gs)+1)}

	pos := 0
	for _, g := range gs {
		base := int32(len(c.ids))
		ids := g.sortedNodes()
		c.ids = append(c.ids, ids...)
		for _, id := range ids {
			rec := g.nodes[id]
			c.nodeW = append(c.nodeW, rec.weight)
			pos += fillRow(c.tgt[pos:], c.wts[pos:], rec, ids, base)
			c.off = append(c.off, int32(pos))
		}
		f.NodeBase = append(f.NodeBase, int32(len(c.ids)))
	}

	// No graph's edges cross its span, so the standard component DFS over
	// the fused arrays discovers exactly the per-graph components, numbered
	// graph-major and by smallest member within each graph.
	c.buildComponents()
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

// insertionRowCap is the longest row fillRow sorts by insertion; a longer
// unlatched row takes the O(d log d) latch instead of an O(d²) sort.
const insertionRowCap = 24

// fillRow writes rec's adjacency into the head of tgt/wts as one ascending
// row — neighbors as base-shifted positions in the graph's ascending ids —
// and returns its length. A latched row is copied from its latch; an
// unlatched one is read off the adjacency map once, straight into the slab,
// and co-sorted in place as it arrives: no per-node allocation and no second
// map probe per edge.
func fillRow(tgt []int32, wts []float64, rec *nodeRec, ids []NodeID, base int32) int {
	av := rec.sorted.Load()
	if av == nil && len(rec.adj) > insertionRowCap {
		av = rec.adjView()
	}
	if av != nil {
		for i, nb := range av.ids {
			tgt[i] = base + indexIn(ids, nb)
		}
		return copy(wts, av.w)
	}
	i := 0
	for nb, w := range rec.adj {
		// Positions ascend with ids, so ordering by position is the
		// ascending-neighbor order the latch would have had.
		t := base + indexIn(ids, nb)
		k := i
		for ; k > 0 && tgt[k-1] > t; k-- {
			tgt[k], wts[k] = tgt[k-1], wts[k-1]
		}
		tgt[k], wts[k] = t, w
		i++
	}
	return i
}
