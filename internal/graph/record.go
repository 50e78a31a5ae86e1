package graph

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// The canonical record is the binary encoding (codec.go's layout) as
// AppendBinary writes it: node ids strictly ascending, then one record per
// distinct edge with u < v, strictly ascending by (u, v). The serving tier lives on records and views
// alone: a request body is decoded straight into its record
// (AppendRecordJSON, Scanner.Record), which is hashed where it lies
// (FingerprintBinary), journaled as it is and compiled into its view
// (CompileBinary), and no Graph is built on the way.

// AppendRecordJSON appends the canonical record of the graph document data
// (MarshalJSON's form) to dst. It is UnmarshalJSON without the Graph: the
// one-pass scanner reads the document when it can, and whatever it declines
// goes through encoding/json, which alone defines the accepted language and
// every decode error. Both end in recordFromLists.
func AppendRecordJSON(dst, data []byte) ([]byte, error) {
	s := NewScanner(data)
	nodes, edges, ok := s.lists()
	if !ok || !s.Done() {
		var jg jsonGraph
		if err := json.Unmarshal(data, &jg); err != nil {
			return nil, fmt.Errorf("decode graph json: %w", err)
		}
		nodes, edges = jg.Nodes, jg.Edges
	}
	return recordFromLists(dst, nodes, edges)
}

// Record reads the graph value at the scanner's position — a whole document
// or a member of an enclosing object alike — into its canonical record,
// appended to dst, and leaves the scanner just past it. False declines: the
// value is not the canonical shape, or it describes no valid graph, and the
// caller's encoding/json decode says which and how.
func (s *Scanner) Record(dst []byte) ([]byte, bool) {
	nodes, edges, ok := s.lists()
	if !ok {
		return nil, false
	}
	rec, err := recordFromLists(dst, nodes, edges)
	return rec, err == nil
}

// recordFromLists appends the canonical record of the graph the decoded
// lists describe to dst, and is the one definition of what a graph document
// may be. It accepts exactly what building the Graph would — AddNode on each
// node in input order, then AddEdge on each edge in stable byEndpoints order
// — fails with the same error text, and coalesces parallel edges by the same
// additions from +0 in input order (so a lone -0 edge is stored as +0).
// nodes and edges are reordered.
func recordFromLists(dst []byte, nodes []jsonNode, edges []Edge) ([]byte, error) {
	if err := sortNodes(nodes); err != nil {
		return nil, fmt.Errorf("decode graph json: %w", err)
	}
	// Room for the record, exactly when no two edges are parallel.
	if size := len(dst) + binaryHeaderLen + binaryNodeLen*len(nodes) + binaryEdgeLen*len(edges); cap(dst) < size {
		dst = append(make([]byte, 0, size), dst...)
	}
	head := len(dst)
	dst = appendBinaryHeader(dst, len(nodes), 0)
	for _, n := range nodes {
		dst = appendBinaryNode(dst, n.ID, n.Weight)
	}
	rec, distinct, sorted, err := appendEdges(dst, nodes, edges)
	if !sorted {
		slices.SortStableFunc(edges, byEndpoints)
		rec, distinct, _, err = appendEdges(dst, nodes, edges)
	}
	if err != nil {
		return nil, fmt.Errorf("decode graph json: %w", err)
	}
	binary.LittleEndian.PutUint32(rec[head+10:], uint32(distinct))
	return rec, nil
}

// appendEdges is recordFromLists' edge pass: it checks each edge, in order,
// as AddEdge would and appends one record per run of parallel edges, their
// weights summed from +0. sorted is false, and the records appended
// meaningless, when edges are not in byEndpoints order: the wire forms send
// them so, and a list that is not pays for a stable sort and a second pass.
func appendEdges(dst []byte, nodes []jsonNode, edges []Edge) (_ []byte, distinct int, sorted bool, _ error) {
	var lo, hi NodeID
	sum := 0.0
	for k, e := range edges {
		u, v := min(e.U, e.V), max(e.U, e.V)
		if k > 0 && (u < lo || u == lo && v < hi) {
			return dst, 0, false, nil
		}
		if err := edgeError(e, nodeAt(nodes, e.U), nodeAt(nodes, e.V)); err != nil {
			// The first error in byEndpoints order, if that is the order.
			return dst, 0, slices.IsSortedFunc(edges[k:], byEndpoints), err
		}
		if k == 0 || u != lo || v != hi {
			if k > 0 {
				dst = appendBinaryEdge(dst, lo, hi, sum)
			}
			lo, hi, sum = u, v, 0
			distinct++
		}
		sum += e.Weight
	}
	if distinct > 0 {
		dst = appendBinaryEdge(dst, lo, hi, sum)
	}
	return dst, distinct, true, nil
}

// sortNodes puts nodes in ascending id order and returns the error AddNode
// gives adding them in input order: the first negative weight or the first
// repeated id, whichever comes first. A list that arrives strictly
// ascending, as the wire forms do, is neither sorted nor copied.
func sortNodes(nodes []jsonNode) error {
	neg := slices.IndexFunc(nodes, func(n jsonNode) bool { return n.Weight < 0 })
	ascending := true
	for i := 1; i < len(nodes) && ascending; i++ {
		ascending = nodes[i-1].ID < nodes[i].ID
	}
	dup := -1
	if !ascending {
		// A repeat is any occurrence of an id but its first; order by
		// (id, position) to find the earliest.
		order := make([]int, len(nodes))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(nodes[a].ID, nodes[b].ID), cmp.Compare(a, b)) })
		for k := 1; k < len(order); k++ {
			if nodes[order[k]].ID == nodes[order[k-1]].ID && (dup < 0 || order[k] < dup) {
				dup = order[k]
			}
		}
	}
	switch {
	case neg >= 0 && (dup < 0 || neg <= dup):
		return fmt.Errorf("add node %d: %w", nodes[neg].ID, ErrNegativeWeight)
	case dup >= 0:
		return fmt.Errorf("add node %d: %w", nodes[dup].ID, ErrNodeExists)
	}
	if !ascending {
		slices.SortFunc(nodes, func(a, b jsonNode) int { return cmp.Compare(a.ID, b.ID) })
	}
	return nil
}

// nodeAt is indexIn over an ascending, duplicate-free node list.
func nodeAt(nodes []jsonNode, id NodeID) int32 {
	n := len(nodes)
	if n == 0 || id < nodes[0].ID || id > nodes[n-1].ID {
		return -1
	}
	if int(nodes[n-1].ID-nodes[0].ID) == n-1 {
		return int32(id - nodes[0].ID)
	}
	if i, ok := slices.BinarySearchFunc(nodes, id, func(n jsonNode, id NodeID) int { return cmp.Compare(n.ID, id) }); ok {
		return int32(i)
	}
	return -1
}

// BinaryCounts returns the node and edge counts of the binary encoding enc
// once its header checks out and its length is the one they promise. It
// checks no record.
func BinaryCounts(enc []byte) (nodes, edges int, err error) {
	n, m, err := binaryHeader(enc)
	if err != nil {
		return 0, 0, err
	}
	if uint64(len(enc)) != binaryHeaderLen+binaryNodeLen*uint64(n)+binaryEdgeLen*uint64(m) {
		return 0, 0, fmt.Errorf("%w: %d bytes for %d nodes and %d edges", ErrBadFormat, len(enc), n, m)
	}
	return int(n), int(m), nil
}

// CompileBinary builds the view of the graph whose canonical record is enc,
// with no Graph on the way: the record lists the nodes in index order, so one
// counting pass over its edges sizes the rows and a second fills them, each
// row ascending (an edge's smaller endpoint precedes its larger one). It is
// Compile of what ReadBinary decodes — the same AppendBinary bytes and
// components (fuzzed) — for the canonical order only: a record whose nodes or
// edges are out of order, repeated, dangling or negative, which no writer
// produces, fails with ErrBadFormat, as does an id the platform's NodeID
// cannot hold.
func CompileBinary(enc []byte) (*CSR, error) {
	n, m, err := BinaryCounts(enc)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	c := &CSR{ids: make([]NodeID, n), nodeW: make([]float64, n), nnz: 2 * m}
	recs := enc[binaryHeaderLen:]
	for i := range c.ids {
		raw, w := int64(le.Uint64(recs)), math.Float64frombits(le.Uint64(recs[8:]))
		id := NodeID(raw)
		if int64(id) != raw || w < 0 || (i > 0 && id <= c.ids[i-1]) {
			return nil, fmt.Errorf("%w: node record %d is not canonical", ErrBadFormat, i)
		}
		c.ids[i], c.nodeW[i] = id, w
		recs = recs[binaryNodeLen:]
	}
	// at is indexIn over the ids, its dense test hoisted out of the edge
	// loops; an id NodeID cannot hold is absent.
	dense := n > 0 && int(c.ids[n-1]-c.ids[0]) == n-1
	at := func(raw uint64) int32 {
		id := NodeID(int64(raw))
		if int64(id) != int64(raw) {
			return -1
		}
		if dense {
			if id < c.ids[0] || id > c.ids[n-1] {
				return -1
			}
			return int32(id - c.ids[0])
		}
		return indexIn(c.ids, id)
	}
	// off[i+1] counts row i, then (prefix sums) off[i] is where it starts.
	off := make([]int32, n+1)
	prevU, prevV := int32(-1), int32(-1)
	for r := recs; len(r) > 0; r = r[binaryEdgeLen:] {
		iu, iv := at(le.Uint64(r)), at(le.Uint64(r[8:]))
		if iu < 0 || iv <= iu || iu < prevU || iu == prevU && iv <= prevV ||
			math.Float64frombits(le.Uint64(r[16:])) < 0 {
			return nil, fmt.Errorf("%w: edge record %d is not canonical", ErrBadFormat, (len(recs)-len(r))/binaryEdgeLen)
		}
		off[iu+1]++
		off[iv+1]++
		prevU, prevV = iu, iv
	}
	for i := range n {
		off[i+1] += off[i]
	}
	// Fill with off[i] as row i's cursor: after the pass it holds row i's
	// end, so shifting it up one slot restores the starts.
	rows := &rowSlab{tgt: make([]int32, 2*m), wts: make([]float64, 2*m)}
	for r := recs; len(r) > 0; r = r[binaryEdgeLen:] {
		iu, iv := at(le.Uint64(r)), at(le.Uint64(r[8:]))
		// A weight is stored as ReadBinary and AddEdge store it, added to
		// the slab's +0: a -0 in a record reads back as +0.
		rows.wts[off[iu]] += math.Float64frombits(le.Uint64(r[16:]))
		rows.tgt[off[iu]], rows.tgt[off[iv]], rows.wts[off[iv]] = iv, iu, rows.wts[off[iu]]
		off[iu]++
		off[iv]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	c.lo, c.hi = off[:n], off[1:]
	c.buildComponents(rows)
	return c, nil
}
