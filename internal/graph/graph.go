// Package graph implements the weighted undirected graphs that COPMECS
// operates on: function data-flow graphs in which each node is a function
// whose weight is its computation amount, and each edge weight is the
// communication volume between the two incident functions (paper §II).
//
// The representation is a node table keyed by NodeID whose records each hold
// one sorted adjacency row (see nodeRec). Parallel edges are coalesced by
// summing their weights, matching the paper's model where the edge weight is
// the total data exchanged between two functions. Self-loops are rejected: a
// function does not transmit to itself.
//
// All accessors that return collections return fresh copies; callers may
// mutate the results freely (see "Copy Slices and Maps at Boundaries").
package graph

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
)

// NodeID identifies a node within a single Graph. IDs are assigned by the
// caller and are stable across all operations except
// Contract, which returns an explicit old→new mapping.
type NodeID int

// Errors returned by graph mutators and accessors.
var (
	// ErrNodeExists is returned by AddNode when the node is already present.
	ErrNodeExists = errors.New("graph: node already exists")
	// ErrNodeNotFound is returned when an operation references a missing node.
	ErrNodeNotFound = errors.New("graph: node not found")
	// ErrSelfLoop is returned by AddEdge when both endpoints are equal.
	ErrSelfLoop = errors.New("graph: self-loops are not allowed")
	// ErrNegativeWeight is returned when a node or edge weight is negative.
	ErrNegativeWeight = errors.New("graph: negative weight")
)

// Edge is one undirected weighted edge. For deterministic processing the
// invariant U < V holds for every Edge returned by this package.
type Edge struct {
	U      NodeID  `json:"u"`
	V      NodeID  `json:"v"`
	Weight float64 `json:"weight"`
}

// nodeRec is one node: its weight and its adjacency row — nbr strictly
// ascending, w[i] the weight of the edge to nbr[i]. The mutators keep the row
// sorted themselves, so every reader (Neighbors, Edges, traversals, the CSR
// compiler, the codecs) walks it as it lies and writes nothing. Cost model,
// d the row's degree: lookup O(log d); insert and remove O(d) element shift
// (an append when the neighbor exceeds the row's last, which is what the
// decoders and the generators' tree phase produce); privatising a clone-
// shared record O(d); compiling a row one copy. The accepted worst case is a
// hub filled far-to-near, O(d²) in total: 15 ms at degree 10⁴ where a map
// took 2.3 ms, 1.9 s at 10⁵ against 51 ms (BenchmarkAddEdgeHub; the decoders
// sort their edge lists first and never pay it).
type nodeRec struct {
	weight float64
	nbr    []NodeID
	w      []float64
	// owner is the token of the Graph that created the record, written once.
	// A record is written in place only by the graph whose current token it
	// carries; any other graph holding it (Clone copies the node table, not
	// the records) first replaces it with a private copy, so clones stay
	// semantically deep while Clone touches no record.
	owner uint64
}

// find returns v's position in the row and true, or the position at which v
// would be inserted and false.
func (rec *nodeRec) find(v NodeID) (int, bool) {
	n := len(rec.nbr)
	if n == 0 || rec.nbr[n-1] < v {
		return n, false
	}
	return slices.BinarySearch(rec.nbr, v)
}

// insert places neighbor v with weight w at position i of a private row.
func (rec *nodeRec) insert(i int, v NodeID, w float64) {
	rec.nbr = slices.Insert(rec.nbr, i, v)
	rec.w = slices.Insert(rec.w, i, w)
}

// remove closes the gap over position i of a private row.
func (rec *nodeRec) remove(i int) {
	rec.nbr = slices.Delete(rec.nbr, i, i+1)
	rec.w = slices.Delete(rec.w, i, i+1)
}

// mutable returns id's record ready for writing: a record g does not own —
// one it may share with a clone — is first replaced by a private copy of the
// weight and the row. Returns nil when id is absent.
func (g *Graph) mutable(id NodeID) *nodeRec {
	rec, ok := g.nodes[id]
	if !ok {
		return nil
	}
	if tok := g.token.Load(); rec.owner != tok {
		rec = &nodeRec{weight: rec.weight, nbr: slices.Clone(rec.nbr), w: slices.Clone(rec.w), owner: tok}
		g.nodes[id] = rec
	}
	return rec
}

// tokens issues ownership tokens (see nodeRec.owner): no two graphs ever hold
// the same value.
var tokens atomic.Uint64

// Graph is a mutable weighted undirected graph. The zero value is not usable;
// construct with New. Graph is not safe for concurrent mutation; concurrent
// readers are safe once mutation has stopped.
type Graph struct {
	nodes           map[NodeID]*nodeRec
	edgeCount       int
	totalEdgeWeight float64
	// nodeList latches the ascending node-id list, the one thing readers
	// write: nil means stale, AddNode/RemoveNode reset it, and the slice is
	// never mutated after publication so Clone may share it. The latch is
	// atomic so that concurrent readers may race to build it.
	nodeList atomic.Pointer[[]NodeID]
	// token marks the records g may write in place. Clone gives both graphs
	// fresh tokens, so every record they then share is copy-on-write for
	// each. Atomic because Clone is a read under the concurrency contract,
	// yet re-tokens the graph it copies.
	token atomic.Uint64
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	g := &Graph{nodes: make(map[NodeID]*nodeRec, n)}
	g.token.Store(tokens.Add(1))
	return g
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of distinct undirected edges.
func (g *Graph) NumEdges() int { return g.edgeCount }

// HasNode reports whether id is present.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddNode inserts a node with the given computation weight.
func (g *Graph) AddNode(id NodeID, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("add node %d: %w", id, ErrNegativeWeight)
	}
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("add node %d: %w", id, ErrNodeExists)
	}
	g.nodes[id] = &nodeRec{weight: weight, owner: g.token.Load()}
	g.nodeList.Store(nil)
	return nil
}

// NodeWeight returns the computation weight of id.
func (g *Graph) NodeWeight(id NodeID) (float64, error) {
	rec, ok := g.nodes[id]
	if !ok {
		return 0, fmt.Errorf("node weight %d: %w", id, ErrNodeNotFound)
	}
	return rec.weight, nil
}

// SetNodeWeight replaces the computation weight of id.
func (g *Graph) SetNodeWeight(id NodeID, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("set node weight %d: %w", id, ErrNegativeWeight)
	}
	rec := g.mutable(id)
	if rec == nil {
		return fmt.Errorf("set node weight %d: %w", id, ErrNodeNotFound)
	}
	rec.weight = weight
	return nil
}

// AddEdge adds weight w to the undirected edge {u, v}, creating it if absent.
// Both endpoints must already exist. Summing matches the data-flow model:
// two call sites between the same pair of functions exchange the combined
// volume.
func (g *Graph) AddEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("add edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	if w < 0 {
		return fmt.Errorf("add edge {%d,%d}: %w", u, v, ErrNegativeWeight)
	}
	ru, rv := g.mutable(u), g.mutable(v)
	if ru == nil {
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", u, v, u, ErrNodeNotFound)
	}
	if rv == nil {
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", u, v, v, ErrNodeNotFound)
	}
	i, exists := ru.find(v)
	j, _ := rv.find(u)
	if !exists {
		// A new edge starts at +0 and takes w by the same addition a
		// coalescing call does, so the stored bits do not depend on which
		// call created the entry (0 + -0 is +0).
		ru.insert(i, v, 0)
		rv.insert(j, u, 0)
		g.edgeCount++
	}
	ru.w[i] += w
	rv.w[j] += w
	g.totalEdgeWeight += w
	return nil
}

// SetEdge replaces the weight of the undirected edge {u, v}, creating it if
// absent. Both endpoints must already exist. Equivalent to RemoveEdge
// followed by AddEdge, in one pass over the adjacency.
func (g *Graph) SetEdge(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("set edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	if w < 0 {
		return fmt.Errorf("set edge {%d,%d}: %w", u, v, ErrNegativeWeight)
	}
	ru, rv := g.mutable(u), g.mutable(v)
	if ru == nil {
		return fmt.Errorf("set edge {%d,%d}: endpoint %d: %w", u, v, u, ErrNodeNotFound)
	}
	if rv == nil {
		return fmt.Errorf("set edge {%d,%d}: endpoint %d: %w", u, v, v, ErrNodeNotFound)
	}
	i, exists := ru.find(v)
	j, _ := rv.find(u)
	var old float64
	if exists {
		old = ru.w[i]
		ru.w[i], rv.w[j] = w, w
	} else {
		ru.insert(i, v, w)
		rv.insert(j, u, w)
		g.edgeCount++
	}
	g.totalEdgeWeight += w - old
	return nil
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	rec, ok := g.nodes[u]
	if !ok {
		return 0, false
	}
	if i, ok := rec.find(v); ok {
		return rec.w[i], true
	}
	return 0, false
}

// RemoveEdge deletes edge {u, v} if present, reporting whether it existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	rec, ok := g.nodes[u]
	if !ok {
		return false
	}
	i, ok := rec.find(v)
	if !ok {
		return false
	}
	w := rec.w[i]
	ru, rv := g.mutable(u), g.mutable(v)
	j, _ := rv.find(u)
	ru.remove(i)
	rv.remove(j)
	g.edgeCount--
	g.totalEdgeWeight -= w
	return true
}

// RemoveNode deletes id and every incident edge, reporting whether it existed.
func (g *Graph) RemoveNode(id NodeID) bool {
	rec, ok := g.nodes[id]
	if !ok {
		return false
	}
	for i, nb := range rec.nbr {
		rnb := g.mutable(nb)
		j, _ := rnb.find(id)
		rnb.remove(j)
		g.edgeCount--
		g.totalEdgeWeight -= rec.w[i]
	}
	delete(g.nodes, id)
	g.nodeList.Store(nil)
	return true
}

// sortedNodes returns the latched ascending node-id list, building it on
// first use. The returned slice is shared: callers inside the package must
// not modify it (Nodes copies for external callers). When the ids form one
// contiguous range, as netgen and the decoders number them, the list is that
// range and no sort runs.
func (g *Graph) sortedNodes() []NodeID {
	if p := g.nodeList.Load(); p != nil {
		return *p
	}
	ids := make([]NodeID, 0, len(g.nodes))
	var lo, hi NodeID
	for id := range g.nodes {
		if len(ids) == 0 || id < lo {
			lo = id
		}
		if len(ids) == 0 || id > hi {
			hi = id
		}
		ids = append(ids, id)
	}
	// n distinct ids spanning exactly n values are that range. The unsigned
	// compare keeps a span too wide for int from passing as dense.
	if n := len(ids); n > 0 && uint(hi-lo) == uint(n-1) {
		for i := range ids {
			ids[i] = lo + NodeID(i)
		}
	} else {
		slices.Sort(ids)
	}
	g.nodeList.Store(&ids)
	return ids
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	copy(ids, g.sortedNodes())
	return ids
}

// Neighbors returns the neighbors of id in ascending order: a fresh copy of
// the node's row.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	rec, ok := g.nodes[id]
	if !ok {
		return nil
	}
	nbs := make([]NodeID, len(rec.nbr))
	copy(nbs, rec.nbr)
	return nbs
}

// eachEdge calls fn once per undirected edge in (U, V) order, read off the
// latched node order and the rows, so no sort runs per call.
func (g *Graph) eachEdge(fn func(u, v NodeID, w float64)) {
	for _, u := range g.sortedNodes() {
		rec := g.nodes[u]
		for i, v := range rec.nbr {
			if u < v {
				fn(u, v, rec.w[i])
			}
		}
	}
}

// Edges returns every undirected edge exactly once, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edgeCount)
	g.eachEdge(func(u, v NodeID, w float64) { es = append(es, Edge{U: u, V: v, Weight: w}) })
	return es
}

// AppendEdgeWeights appends the weight of every distinct undirected edge to
// dst once, in Edges() order, and returns the extended slice. It exists for
// aggregations over the weights alone (quantiles, totals) that should not
// pay Edges()'s per-edge struct materialisation.
func (g *Graph) AppendEdgeWeights(dst []float64) []float64 {
	dst = slices.Grow(dst, g.edgeCount)
	g.eachEdge(func(_, _ NodeID, w float64) { dst = append(dst, w) })
	return dst
}

// TotalNodeWeight returns the sum of all node weights (total computation),
// accumulated in ascending node order for bitwise determinism.
func (g *Graph) TotalNodeWeight() float64 {
	var sum float64
	for _, id := range g.sortedNodes() {
		sum += g.nodes[id].weight
	}
	return sum
}

// TotalEdgeWeight returns the sum of all edge weights (total communication).
func (g *Graph) TotalEdgeWeight() float64 { return g.totalEdgeWeight }

// Clone returns a semantically deep copy of g at the cost of one copy of the
// node table: the per-node records are shared copy-on-write, so the
// adjacency rows are only duplicated — one node at a time — when either
// graph later mutates them. Clone touches no record: it gives the clone a
// fresh token and re-tokens g, which leaves every record owned by neither.
// Clone counts as a read under the concurrency contract: concurrent Clones
// (and concurrent readers) of the same graph are safe once mutation has
// stopped; the token it replaces is atomic.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:           maps.Clone(g.nodes),
		edgeCount:       g.edgeCount,
		totalEdgeWeight: g.totalEdgeWeight,
	}
	c.token.Store(tokens.Add(1))
	g.token.Store(tokens.Add(1))
	c.nodeList.Store(g.nodeList.Load())
	return c
}

// Equal reports whether g and h have identical node sets, node weights,
// edge sets and edge weights.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for id, rec := range g.nodes {
		hrec, ok := h.nodes[id]
		if !ok || hrec.weight != rec.weight ||
			!slices.Equal(hrec.nbr, rec.nbr) || !slices.Equal(hrec.w, rec.w) {
			return false
		}
	}
	return true
}

// String summarises the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d, comp: %.3g, comm: %.3g}",
		g.NumNodes(), g.NumEdges(), g.TotalNodeWeight(), g.TotalEdgeWeight())
}
