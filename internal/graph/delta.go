package graph

import (
	"fmt"
	"slices"
)

// NodeDelta is one node addition or weight override in a Delta.
type NodeDelta struct {
	ID     NodeID  `json:"id"`
	Weight float64 `json:"weight"`
}

// EdgeDelta sets the absolute weight of edge {U, V}, creating the edge if it
// is absent. Absolute semantics (rather than Graph.AddEdge's summing) make a
// delta idempotent to describe: the wire form says what the edge weighs now.
type EdgeDelta struct {
	U      NodeID  `json:"u"`
	V      NodeID  `json:"v"`
	Weight float64 `json:"weight"`
}

// EdgePair names one undirected edge to remove.
type EdgePair struct {
	U NodeID `json:"u"`
	V NodeID `json:"v"`
}

// Delta is a batch of mutations against one graph. Application order is
// fixed and documented because later ops may reference the effects of
// earlier ones:
//
//  1. RemoveEdges — each edge must exist;
//  2. RemoveNodes — each node must exist; incident edges are dropped;
//  3. AddNodes — each id must be absent (a node removed in step 2 may be
//     re-added);
//  4. SetNodeWeights — each node must exist after steps 2–3;
//  5. SetEdges — both endpoints must exist after steps 2–3; the edge weight
//     is set absolutely, creating the edge when absent.
//
// Apply mutates a map Graph; CSR.Patch produces the identical frozen view
// directly, without recompiling. The same struct is the /v1/mutate wire
// form, so the JSON field names are part of the serving API.
type Delta struct {
	RemoveEdges    []EdgePair  `json:"remove_edges,omitempty"`
	RemoveNodes    []NodeID    `json:"remove_nodes,omitempty"`
	AddNodes       []NodeDelta `json:"add_nodes,omitempty"`
	SetNodeWeights []NodeDelta `json:"set_node_weights,omitempty"`
	SetEdges       []EdgeDelta `json:"set_edges,omitempty"`
}

// Ops reports the total number of operations in the delta.
func (d *Delta) Ops() int {
	return len(d.RemoveEdges) + len(d.RemoveNodes) + len(d.AddNodes) +
		len(d.SetNodeWeights) + len(d.SetEdges)
}

// Empty reports whether the delta contains no operations.
func (d *Delta) Empty() bool { return d.Ops() == 0 }

// Apply mutates g in place following the documented application order,
// returning the first validation error. On error g may be partially
// mutated; callers that need atomicity should apply to a Clone.
func (d *Delta) Apply(g *Graph) error {
	for _, e := range d.RemoveEdges {
		if !g.RemoveEdge(e.U, e.V) {
			return fmt.Errorf("delta: remove edge {%d,%d}: %w", e.U, e.V, ErrNodeNotFound)
		}
	}
	for _, id := range d.RemoveNodes {
		if !g.RemoveNode(id) {
			return fmt.Errorf("delta: remove node %d: %w", id, ErrNodeNotFound)
		}
	}
	for _, n := range d.AddNodes {
		if err := g.AddNode(n.ID, n.Weight); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
	}
	for _, n := range d.SetNodeWeights {
		if err := g.SetNodeWeight(n.ID, n.Weight); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
	}
	for _, e := range d.SetEdges {
		if err := g.SetEdge(e.U, e.V, e.Weight); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
	}
	return nil
}

// PatchInfo reports what a CSR.Patch changed, in terms that let an
// incremental pipeline decide what it may reuse from the previous solve.
type PatchInfo struct {
	// OldCompOf maps each component of the patched view to the component
	// of the source view with the identical member set (per-node, with
	// identical weights and internal edges), or -1 when the delta touched
	// the component and its pipeline results must be recomputed. A clean
	// component's member list is position-aligned with the old one: member
	// i of the new list is member i of the old list at its new index.
	OldCompOf []int32
	// NewToOld maps each new node index to its old index, -1 for added
	// nodes. Nil when the node set is unchanged (identity mapping).
	NewToOld []int32
	// OldToNew maps each old node index to its new index, -1 for removed
	// nodes. Nil when the node set is unchanged (identity mapping).
	OldToNew []int32
	// TouchedEdges counts edges the delta changed: removed (explicitly or
	// via node removal) plus set. The touched-edge fraction
	// TouchedEdges/oldEdges is the incremental solver's fallback signal.
	TouchedEdges int
}

// rowEdit collects the per-row effects of a delta, in new-index space.
type rowEdit struct {
	// drop lists old neighbor indices to omit from the copied row, ascending.
	drop []int32
	// set lists (new neighbor index, weight) overrides/inserts, ascending.
	setTgt []int32
	setW   []float64
}

// Patch applies d to the frozen view, producing the patched view plus the
// change report, without recompiling from a map graph. The result is
// bit-for-bit identical to d.Apply on the source graph followed by Compile —
// untouched rows are copied (index-shifted when nodes come and go), edited
// rows are merged in ascending order, and components are rebuilt with the
// same counting-sort layout. When the node set is unchanged the patched view
// shares the source's immutable id array.
func (c *CSR) Patch(d *Delta) (*CSR, *PatchInfo, error) {
	oldN := len(c.ids)

	// Step 1–2 validation: removals, in old-index space.
	removed := make(map[int32]bool, len(d.RemoveNodes))
	for _, id := range d.RemoveNodes {
		i := c.IndexOf(id)
		if i < 0 {
			return nil, nil, fmt.Errorf("patch: remove node %d: %w", id, ErrNodeNotFound)
		}
		if removed[i] {
			return nil, nil, fmt.Errorf("patch: remove node %d twice", id)
		}
		removed[i] = true
	}
	type edgeKey struct{ u, v int32 }
	norm := func(u, v int32) edgeKey {
		if u > v {
			u, v = v, u
		}
		return edgeKey{u, v}
	}
	removedEdges := make(map[edgeKey]bool, len(d.RemoveEdges))
	for _, e := range d.RemoveEdges {
		iu, iv := c.IndexOf(e.U), c.IndexOf(e.V)
		if iu < 0 || iv < 0 {
			return nil, nil, fmt.Errorf("patch: remove edge {%d,%d}: %w", e.U, e.V, ErrNodeNotFound)
		}
		if _, ok := c.findEdge(iu, iv); !ok {
			return nil, nil, fmt.Errorf("patch: remove edge {%d,%d}: edge not found", e.U, e.V)
		}
		k := norm(iu, iv)
		if removedEdges[k] {
			return nil, nil, fmt.Errorf("patch: remove edge {%d,%d} twice", e.U, e.V)
		}
		removedEdges[k] = true
	}

	// Step 3: additions. A removed id may be re-added.
	added := make([]NodeDelta, 0, len(d.AddNodes))
	addedSet := make(map[NodeID]float64, len(d.AddNodes))
	for _, n := range d.AddNodes {
		if n.Weight < 0 {
			return nil, nil, fmt.Errorf("patch: add node %d: %w", n.ID, ErrNegativeWeight)
		}
		if _, dup := addedSet[n.ID]; dup {
			return nil, nil, fmt.Errorf("patch: add node %d twice", n.ID)
		}
		if i := c.IndexOf(n.ID); i >= 0 && !removed[i] {
			return nil, nil, fmt.Errorf("patch: add node %d: %w", n.ID, ErrNodeExists)
		}
		addedSet[n.ID] = n.Weight
		added = append(added, n)
	}

	// New index space: surviving old nodes merged with added ids, ascending.
	var (
		ids      = c.ids
		oldToNew []int32 // nil = identity
		newToOld []int32 // nil = identity
	)
	if len(removed) > 0 || len(added) > 0 {
		addIDs := make([]NodeID, 0, len(added))
		for _, n := range added {
			addIDs = append(addIDs, n.ID)
		}
		slices.Sort(addIDs)
		newN := oldN - len(removed) + len(added)
		ids = make([]NodeID, 0, newN)
		oldToNew = make([]int32, oldN)
		newToOld = make([]int32, 0, newN)
		ai := 0
		for i := int32(0); i < int32(oldN); i++ {
			for ai < len(addIDs) && addIDs[ai] < c.ids[i] {
				newToOld = append(newToOld, -1)
				ids = append(ids, addIDs[ai])
				ai++
			}
			if removed[i] {
				oldToNew[i] = -1
				continue
			}
			oldToNew[i] = int32(len(ids))
			newToOld = append(newToOld, i)
			ids = append(ids, c.ids[i])
		}
		for ; ai < len(addIDs); ai++ {
			newToOld = append(newToOld, -1)
			ids = append(ids, addIDs[ai])
		}
	}
	newN := len(ids)
	mapOld := func(i int32) int32 {
		if oldToNew == nil {
			return i
		}
		return oldToNew[i]
	}

	// Step 4: weight overrides, resolved in new-index space.
	p := &CSR{
		ids:   ids,
		nodeW: make([]float64, newN),
		multi: c.multi,
	}
	for j := 0; j < newN; j++ {
		if newToOld == nil {
			p.nodeW[j] = c.nodeW[j]
		} else if oi := newToOld[j]; oi >= 0 {
			p.nodeW[j] = c.nodeW[oi]
		} else {
			p.nodeW[j] = addedSet[ids[j]]
		}
	}
	// Duplicate weight sets are legal (last wins), matching Apply.
	weightTouched := make(map[int32]bool, len(d.SetNodeWeights))
	for _, n := range d.SetNodeWeights {
		j := p.IndexOf(n.ID)
		if j < 0 {
			return nil, nil, fmt.Errorf("patch: set node weight %d: %w", n.ID, ErrNodeNotFound)
		}
		if n.Weight < 0 {
			return nil, nil, fmt.Errorf("patch: set node weight %d: %w", n.ID, ErrNegativeWeight)
		}
		weightTouched[j] = true
		p.nodeW[j] = n.Weight
	}

	// Step 5: edge sets, validated in new-index space.
	setEdges := make(map[edgeKey]float64, len(d.SetEdges))
	for _, e := range d.SetEdges {
		ju, jv := p.IndexOf(e.U), p.IndexOf(e.V)
		if ju < 0 || jv < 0 {
			return nil, nil, fmt.Errorf("patch: set edge {%d,%d}: %w", e.U, e.V, ErrNodeNotFound)
		}
		if ju == jv {
			return nil, nil, fmt.Errorf("patch: set edge {%d,%d}: %w", e.U, e.V, ErrSelfLoop)
		}
		if e.Weight < 0 {
			return nil, nil, fmt.Errorf("patch: set edge {%d,%d}: %w", e.U, e.V, ErrNegativeWeight)
		}
		// Duplicate edge sets are legal (last wins), matching Apply.
		setEdges[norm(ju, jv)] = e.Weight
	}

	// Per-row edit lists, keyed by new index. touchedOld marks old nodes
	// whose row or weight the delta changed (pipeline dirtiness).
	edits := make(map[int32]*rowEdit, 2*len(setEdges)+2*len(removedEdges))
	editOf := func(j int32) *rowEdit {
		e := edits[j]
		if e == nil {
			e = &rowEdit{}
			edits[j] = e
		}
		return e
	}
	touchedOld := make(map[int32]bool, 2*len(edits)+len(removed)+len(weightTouched))
	for k := range removedEdges {
		touchedOld[k.u] = true
		touchedOld[k.v] = true
		if ju, jv := mapOld(k.u), mapOld(k.v); ju >= 0 && jv >= 0 {
			// Only surviving rows need the explicit drop; removed rows vanish.
			editOf(ju).drop = append(editOf(ju).drop, k.v)
			editOf(jv).drop = append(editOf(jv).drop, k.u)
		}
	}
	for oi := range removed {
		touchedOld[oi] = true
		for _, v := range c.tgt[c.off[oi]:c.off[oi+1]] {
			touchedOld[v] = true
		}
	}
	for j := range weightTouched {
		if newToOld == nil {
			touchedOld[j] = true
		} else if oi := newToOld[j]; oi >= 0 {
			touchedOld[oi] = true
		}
	}
	for k, w := range setEdges {
		editOf(k.u).setTgt = append(editOf(k.u).setTgt, k.v)
		editOf(k.u).setW = append(editOf(k.u).setW, w)
		editOf(k.v).setTgt = append(editOf(k.v).setTgt, k.u)
		editOf(k.v).setW = append(editOf(k.v).setW, w)
		for _, j := range [2]int32{k.u, k.v} {
			if newToOld == nil {
				touchedOld[j] = true
			} else if oi := newToOld[j]; oi >= 0 {
				touchedOld[oi] = true
			}
		}
	}
	for _, e := range edits {
		sortEditLists(e)
	}

	// Row assembly: ascending new-index scan; each row merges the surviving
	// remapped old row with its edit list, staying ascending throughout.
	nnzCap := len(c.tgt) + 2*len(setEdges)
	p.off = make([]int32, newN+1)
	p.tgt = make([]int32, 0, nnzCap)
	p.wts = make([]float64, 0, nnzCap)
	droppedByNodeRemoval := 0
	for j := int32(0); j < int32(newN); j++ {
		e := edits[j]
		if e == nil && newToOld == nil {
			// Identity index space and no edits on this row: copy it
			// wholesale instead of walking it entry by entry.
			p.tgt = append(p.tgt, c.tgt[c.off[j]:c.off[j+1]]...)
			p.wts = append(p.wts, c.wts[c.off[j]:c.off[j+1]]...)
			p.off[j+1] = int32(len(p.tgt))
			continue
		}
		oi := j
		if newToOld != nil {
			oi = newToOld[j]
		}
		if oi >= 0 {
			lo, hi := c.off[oi], c.off[oi+1]
			di := 0
			for pos := lo; pos < hi; pos++ {
				v := c.tgt[pos]
				for e != nil && di < len(e.drop) && e.drop[di] < v {
					di++
				}
				if e != nil && di < len(e.drop) && e.drop[di] == v {
					continue // explicitly removed edge
				}
				nv := mapOld(v)
				if nv < 0 {
					// The survivor sees each half-removed edge exactly once.
					droppedByNodeRemoval++
					continue
				}
				p.appendRowEntry(e, nv, c.wts[pos])
			}
		}
		if e != nil {
			p.flushRowEdits(e)
		}
		p.off[j+1] = int32(len(p.tgt))
	}
	// Count edges dropped because both endpoints were removed (neither
	// surviving row saw them); edges already in removedEdges were counted
	// there.
	for oi := range removed {
		for _, v := range c.tgt[c.off[oi]:c.off[oi+1]] {
			if oi < v && removed[v] && !removedEdges[edgeKey{oi, v}] {
				droppedByNodeRemoval++
			}
		}
	}

	// A delta that removes nothing, adds nothing, and only re-weights edges
	// that already existed cannot change connectivity: the component layout
	// (immutable once built) carries over from the source view.
	structural := len(removed) > 0 || len(added) > 0 || len(removedEdges) > 0
	if !structural {
		for k := range setEdges {
			if _, ok := c.findEdge(k.u, k.v); !ok {
				structural = true
				break
			}
		}
	}
	if structural {
		p.buildComponents()
	} else {
		p.comps, p.compOf = c.comps, c.compOf
	}

	info := &PatchInfo{
		NewToOld:     newToOld,
		OldToNew:     oldToNew,
		TouchedEdges: len(removedEdges) + len(setEdges) + droppedByNodeRemoval,
	}
	info.OldCompOf = cleanComponents(c, p, newToOld, touchedOld)
	return p, info, nil
}

// sortEditLists sorts a rowEdit's drop and set lists ascending by target
// (insertion sort: lists are tiny).
func sortEditLists(e *rowEdit) {
	for i := 1; i < len(e.drop); i++ {
		for k := i; k > 0 && e.drop[k-1] > e.drop[k]; k-- {
			e.drop[k-1], e.drop[k] = e.drop[k], e.drop[k-1]
		}
	}
	for i := 1; i < len(e.setTgt); i++ {
		for k := i; k > 0 && e.setTgt[k-1] > e.setTgt[k]; k-- {
			e.setTgt[k-1], e.setTgt[k] = e.setTgt[k], e.setTgt[k-1]
			e.setW[k-1], e.setW[k] = e.setW[k], e.setW[k-1]
		}
	}
}

// appendRowEntry appends one surviving old neighbor (already remapped to nv)
// to the row under construction, first emitting any set-edge entries that
// sort before it; a set entry equal to nv overrides the copied weight.
func (p *CSR) appendRowEntry(e *rowEdit, nv int32, w float64) {
	if e != nil {
		for len(e.setTgt) > 0 && e.setTgt[0] < nv {
			p.tgt = append(p.tgt, e.setTgt[0])
			p.wts = append(p.wts, e.setW[0])
			e.setTgt, e.setW = e.setTgt[1:], e.setW[1:]
		}
		if len(e.setTgt) > 0 && e.setTgt[0] == nv {
			p.tgt = append(p.tgt, nv)
			p.wts = append(p.wts, e.setW[0])
			e.setTgt, e.setW = e.setTgt[1:], e.setW[1:]
			return
		}
	}
	p.tgt = append(p.tgt, nv)
	p.wts = append(p.wts, w)
}

// flushRowEdits emits the set-edge entries that sort after every copied
// neighbor of the row.
func (p *CSR) flushRowEdits(e *rowEdit) {
	for len(e.setTgt) > 0 {
		p.tgt = append(p.tgt, e.setTgt[0])
		p.wts = append(p.wts, e.setW[0])
		e.setTgt, e.setW = e.setTgt[1:], e.setW[1:]
	}
}

// cleanComponents maps each component of the patched view p to the
// equal-content component of the source view c, or -1 when any member was
// touched by the delta (including added nodes). A component with no touched
// member kept exactly its old member set: the delta changed no edge or
// weight inside it, and any edge that could have joined it to changed
// territory would have touched one of its members.
func cleanComponents(c, p *CSR, newToOld []int32, touchedOld map[int32]bool) []int32 {
	oldCompOf := make([]int32, len(p.comps))
	for nc := range oldCompOf {
		oldCompOf[nc] = -1
	}
	for nc, members := range p.comps {
		clean := true
		oc := int32(-1)
		for _, j := range members {
			oi := j
			if newToOld != nil {
				oi = newToOld[j]
			}
			if oi < 0 || touchedOld[oi] {
				clean = false
				break
			}
			if oc < 0 {
				oc = c.compOf[oi]
			} else if c.compOf[oi] != oc {
				clean = false
				break
			}
		}
		if clean && oc >= 0 && len(c.comps[oc]) == len(members) {
			oldCompOf[nc] = oc
		}
	}
	return oldCompOf
}

// findEdge locates edge {u, v} in u's row via binary search.
func (c *CSR) findEdge(u, v int32) (pos int32, ok bool) {
	lo, hi := c.off[u], c.off[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.tgt[mid] < v:
			lo = mid + 1
		case c.tgt[mid] > v:
			hi = mid
		default:
			return mid, true
		}
	}
	return -1, false
}
