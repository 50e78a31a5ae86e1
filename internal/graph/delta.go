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
// bit-for-bit identical to d.Apply on the source graph followed by Compile,
// read through the accessors. What it costs follows what the delta touched:
// a component none of whose members the delta touched keeps its source's row
// slab and member list; every other component is re-derived by a search from
// its smallest member and gets a slab of its own, its rows merged in
// ascending order. The id array is shared when the node set is unchanged and
// the weight array when no weight is; when nodes come or go every index
// shifts, so every component is re-derived through the old → new mapping.
// A source view that has been fingerprinted hands its chunk digests on, so
// the patched view's Fingerprint re-hashes only the chunks d changed.
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
	shifted := newToOld != nil
	mapOld := func(i int32) int32 {
		if !shifted {
			return i
		}
		return oldToNew[i]
	}
	oldOf := func(j int32) int32 {
		if !shifted {
			return j
		}
		return newToOld[j]
	}

	// dirty marks the old components that hold a node whose row or weight the
	// delta changed: their pipeline results must be recomputed and their rows
	// rebuilt. Every other component kept exactly its member set — any edge
	// that could join it to changed territory, or cut it, touches one of its
	// members.
	dirty := make([]bool, len(c.comps))
	touch := func(j int32) {
		if oi := oldOf(j); oi >= 0 {
			dirty[c.compOf[oi]] = true
		}
	}

	// Step 4: weight overrides, resolved in new-index space.
	p := &CSR{ids: ids, nodeW: c.nodeW, multi: c.multi}
	if shifted || len(d.SetNodeWeights) > 0 {
		p.nodeW = make([]float64, newN)
		for j := range p.nodeW {
			if oi := oldOf(int32(j)); oi >= 0 {
				p.nodeW[j] = c.nodeW[oi]
			} else {
				p.nodeW[j] = addedSet[ids[j]]
			}
		}
	}
	// Duplicate weight sets are legal (last wins), matching Apply.
	for _, n := range d.SetNodeWeights {
		j := p.IndexOf(n.ID)
		if j < 0 {
			return nil, nil, fmt.Errorf("patch: set node weight %d: %w", n.ID, ErrNodeNotFound)
		}
		if n.Weight < 0 {
			return nil, nil, fmt.Errorf("patch: set node weight %d: %w", n.ID, ErrNegativeWeight)
		}
		touch(j)
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
		// Duplicate edge sets are legal (last wins), matching Apply. The
		// weight is stored as SetEdge and AddEdge store it, added to +0,
		// so a -0 is stored as +0.
		setEdges[norm(ju, jv)] = 0 + e.Weight
	}

	// Per-row edit lists, keyed by new index.
	edits := make(map[int32]*rowEdit, 2*len(setEdges)+2*len(removedEdges))
	editOf := func(j int32) *rowEdit {
		e := edits[j]
		if e == nil {
			e = &rowEdit{}
			edits[j] = e
		}
		return e
	}
	for k := range removedEdges {
		dirty[c.compOf[k.u]] = true
		if ju, jv := mapOld(k.u), mapOld(k.v); ju >= 0 && jv >= 0 {
			// Only surviving rows need the explicit drop; removed rows vanish.
			editOf(ju).drop = append(editOf(ju).drop, k.v)
			editOf(jv).drop = append(editOf(jv).drop, k.u)
		}
	}
	for oi := range removed {
		dirty[c.compOf[oi]] = true
	}
	for k, w := range setEdges {
		editOf(k.u).setTgt = append(editOf(k.u).setTgt, k.v)
		editOf(k.u).setW = append(editOf(k.u).setW, w)
		editOf(k.v).setTgt = append(editOf(k.v).setTgt, k.u)
		editOf(k.v).setW = append(editOf(k.v).setW, w)
		touch(k.u)
		touch(k.v)
	}
	for _, e := range edits {
		sortEditLists(e)
	}

	// Rows and components, one ascending scan: an unlabelled node is the
	// smallest member of the next component, so components come out numbered
	// as buildComponents numbers them. A clean component in an unshifted index
	// space is adopted whole; anything else is searched out over the patched
	// adjacency — the source rows minus drops and removed nodes, plus sets —
	// and its rows are assembled into a fresh slab.
	region := newN
	if !shifted {
		region = 0
		for oc, members := range c.comps {
			if dirty[oc] {
				region += len(members)
			}
		}
	}
	p.lo, p.hi = make([]int32, newN), make([]int32, newN)
	if !shifted {
		copy(p.lo, c.lo)
		copy(p.hi, c.hi)
	}
	p.compOf = make([]int32, newN)
	for j := range p.compOf {
		p.compOf[j] = -1
	}
	p.comps = make([][]int32, 0, len(c.comps))
	p.slabs = make([]*rowSlab, 0, len(c.comps))
	info := &PatchInfo{
		OldCompOf: make([]int32, 0, len(c.comps)),
		NewToOld:  newToOld,
		OldToNew:  oldToNew,
	}
	// queue is both the search frontier and, once a component is exhausted,
	// the storage of its member list.
	queue := make([]int32, 0, region)
	droppedByNodeRemoval := 0
	for j := int32(0); j < int32(newN); j++ {
		if p.compOf[j] >= 0 {
			continue
		}
		id := int32(len(p.comps))
		oc := int32(-1)
		if oi := oldOf(j); oi >= 0 && !dirty[c.compOf[oi]] {
			oc = c.compOf[oi]
		}
		info.OldCompOf = append(info.OldCompOf, oc)
		if oc >= 0 && !shifted {
			for _, m := range c.comps[oc] {
				p.compOf[m] = id
				p.nnz += int(c.hi[m] - c.lo[m])
			}
			p.comps = append(p.comps, c.comps[oc])
			p.slabs = append(p.slabs, c.slabs[oc])
			continue
		}

		start := len(queue)
		p.compOf[j] = id
		queue = append(queue, j)
		visit := func(v int32) {
			if p.compOf[v] < 0 {
				p.compOf[v] = id
				queue = append(queue, v)
			}
		}
		rowCap := 2 * len(setEdges)
		for head := start; head < len(queue); head++ {
			u := queue[head]
			e := edits[u]
			if ou := oldOf(u); ou >= 0 {
				tgt, _ := c.Adj(ou)
				rowCap += len(tgt)
				for _, v := range tgt {
					if nv := mapOld(v); nv >= 0 && (e == nil || !slices.Contains(e.drop, v)) {
						visit(nv)
					}
				}
			}
			if e != nil {
				for _, v := range e.setTgt {
					visit(v)
				}
			}
		}
		members := queue[start:len(queue):len(queue)]
		slices.Sort(members)

		s := &rowSlab{tgt: make([]int32, 0, rowCap), wts: make([]float64, 0, rowCap)}
		for _, u := range members {
			p.lo[u] = int32(len(s.tgt))
			if e := edits[u]; e == nil && !shifted {
				// Unedited row, unshifted indices: a copy.
				tgt, w := c.Adj(u)
				s.tgt = append(s.tgt, tgt...)
				s.wts = append(s.wts, w...)
			} else {
				droppedByNodeRemoval += s.mergeRow(c, oldOf(u), e, oldToNew)
			}
			p.hi[u] = int32(len(s.tgt))
		}
		p.nnz += len(s.tgt)
		p.comps = append(p.comps, members)
		p.slabs = append(p.slabs, s)
	}

	// Count edges dropped because both endpoints were removed (neither
	// surviving row saw them); edges already in removedEdges were counted
	// there.
	for oi := range removed {
		tgt, _ := c.Adj(oi)
		for _, v := range tgt {
			if oi < v && removed[v] && !removedEdges[edgeKey{oi, v}] {
				droppedByNodeRemoval++
			}
		}
	}
	info.TouchedEdges = len(removedEdges) + len(setEdges) + droppedByNodeRemoval

	// Fingerprint digests: c's, when it has them, with the chunks marked
	// stale that hold an edited weight, the smaller endpoint of an edited or
	// dropped edge, or a shifted index.
	if p.seedFingerprint(c) {
		for _, n := range d.SetNodeWeights {
			p.markStale(p.IndexOf(n.ID))
		}
		for k := range setEdges {
			p.markStale(k.u)
		}
		for k := range removedEdges {
			if ju := mapOld(k.u); ju >= 0 {
				p.markStale(ju)
			}
		}
		for oi := range removed {
			tgt, _ := c.Adj(oi)
			for _, v := range tgt {
				if v < oi && !removed[v] {
					p.markStale(mapOld(v))
				}
			}
		}
		if shifted {
			first := min(oldN, newN)
			for j, oi := range newToOld {
				if oi != int32(j) {
					first = j
					break
				}
			}
			p.markStaleFrom(first)
		}
	}
	return p, info, nil
}

// mergeRow appends the patched row of old node ou (-1 for an added node) to
// the slab: the source entries that survive e's drops, mapped through
// oldToNew (nil = identity), merged ascending with e's sets — a set naming a
// surviving neighbor overrides its weight. It reports how many entries fell
// away because their neighbor was removed: the survivor sees each
// half-removed edge exactly once.
func (s *rowSlab) mergeRow(c *CSR, ou int32, e *rowEdit, oldToNew []int32) (dropped int) {
	var ed rowEdit
	if e != nil {
		ed = *e
	}
	var tgt []int32
	var w []float64
	if ou >= 0 {
		tgt, w = c.Adj(ou)
	}
	di, si := 0, 0
	for k, v := range tgt {
		for di < len(ed.drop) && ed.drop[di] < v {
			di++
		}
		if di < len(ed.drop) && ed.drop[di] == v {
			continue // explicitly removed edge
		}
		nv := v
		if oldToNew != nil {
			if nv = oldToNew[v]; nv < 0 {
				dropped++
				continue
			}
		}
		for ; si < len(ed.setTgt) && ed.setTgt[si] < nv; si++ {
			s.tgt = append(s.tgt, ed.setTgt[si])
			s.wts = append(s.wts, ed.setW[si])
		}
		wt := w[k]
		if si < len(ed.setTgt) && ed.setTgt[si] == nv {
			wt = ed.setW[si]
			si++
		}
		s.tgt = append(s.tgt, nv)
		s.wts = append(s.wts, wt)
	}
	s.tgt = append(s.tgt, ed.setTgt[si:]...)
	s.wts = append(s.wts, ed.setW[si:]...)
	return dropped
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
