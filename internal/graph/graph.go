// Package graph implements the weighted undirected graphs that COPMECS
// operates on: function data-flow graphs in which each node is a function
// whose weight is its computation amount, and each edge weight is the
// communication volume between the two incident functions (paper §II).
//
// The representation is an adjacency map keyed by NodeID. Parallel edges are
// coalesced by summing their weights, matching the paper's model where the
// edge weight is the total data exchanged between two functions. Self-loops
// are rejected: a function does not transmit to itself.
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
// caller (or by AddNodeAuto) and are stable across all operations except
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
	U, V   NodeID
	Weight float64
}

type nodeRec struct {
	weight float64
	adj    map[NodeID]float64
	// sorted latches the ascending neighbor list plus the matching weights
	// so repeated Neighbors / Edges / traversal calls stop paying O(d log d)
	// per lookup; CSR assembly copies a latched row but latches no short one
	// itself (fillRow). nil means stale; mutators that change the adjacency
	// set or an edge weight reset it. The latch is atomic so that concurrent
	// readers (safe per the package contract once mutation has stopped) may
	// race to build it; the slices themselves are never mutated in place
	// after publication.
	sorted atomic.Pointer[adjCache]
	// shared marks a record referenced by more than one Graph (set by Clone,
	// which copies the node table but not the records). Mutators replace a
	// shared record with a private copy before writing, so clones stay
	// semantically deep while Clone itself is O(nodes). The flag is sticky:
	// it may stay set after every other owner is gone, costing at most one
	// extra record copy on that node's next mutation.
	shared atomic.Bool
}

// adjCache is one node's latched adjacency: ids ascending, w[i] the weight
// of the edge to ids[i]. Both slices are shared — never modify.
type adjCache struct {
	ids []NodeID
	w   []float64
}

// adjView returns the latched adjacency cache of rec, building it on first
// use.
func (rec *nodeRec) adjView() *adjCache {
	if p := rec.sorted.Load(); p != nil {
		return p
	}
	nbs := make([]NodeID, 0, len(rec.adj))
	for nb := range rec.adj {
		nbs = append(nbs, nb)
	}
	slices.Sort(nbs)
	ws := make([]float64, len(nbs))
	for i, nb := range nbs {
		ws[i] = rec.adj[nb]
	}
	c := &adjCache{ids: nbs, w: ws}
	rec.sorted.Store(c)
	return c
}

// sortedAdj returns the latched ascending neighbor list of rec. The returned
// slice is shared: callers inside the package must not modify it (Neighbors
// copies for external callers).
func (rec *nodeRec) sortedAdj() []NodeID {
	return rec.adjView().ids
}

// mutable returns id's record ready for writing: a record shared with a
// clone is first replaced by a private copy (carrying the adjacency latch,
// which stays valid until the caller's write resets it). Returns nil when id
// is absent.
func (g *Graph) mutable(id NodeID) *nodeRec {
	rec, ok := g.nodes[id]
	if !ok {
		return nil
	}
	if rec.shared.Load() {
		nr := &nodeRec{weight: rec.weight, adj: maps.Clone(rec.adj)}
		nr.sorted.Store(rec.sorted.Load())
		g.nodes[id] = nr
		rec = nr
	}
	return rec
}

// Graph is a mutable weighted undirected graph. The zero value is not usable;
// construct with New. Graph is not safe for concurrent mutation; concurrent
// readers are safe once mutation has stopped.
type Graph struct {
	nodes           map[NodeID]*nodeRec
	edgeCount       int
	totalEdgeWeight float64
	// nodeList latches the ascending node-id list, mirroring nodeRec.sorted:
	// nil means stale, AddNode/RemoveNode reset it, and the slice is never
	// mutated after publication so Clone may share it.
	nodeList atomic.Pointer[[]NodeID]
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{nodes: make(map[NodeID]*nodeRec, n)}
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
	g.nodes[id] = &nodeRec{weight: weight, adj: make(map[NodeID]float64)}
	g.nodeList.Store(nil)
	return nil
}

// AddNodeAuto inserts a node with the smallest unused non-negative ID and
// returns that ID.
func (g *Graph) AddNodeAuto(weight float64) (NodeID, error) {
	id := NodeID(len(g.nodes))
	for g.HasNode(id) {
		id++
	}
	if err := g.AddNode(id, weight); err != nil {
		return 0, err
	}
	return id, nil
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
	if _, ok := g.nodes[u]; !ok {
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", u, v, u, ErrNodeNotFound)
	}
	if _, ok := g.nodes[v]; !ok {
		return fmt.Errorf("add edge {%d,%d}: endpoint %d: %w", u, v, v, ErrNodeNotFound)
	}
	ru, rv := g.mutable(u), g.mutable(v)
	if _, exists := ru.adj[v]; !exists {
		g.edgeCount++
	}
	// The latch caches edge weights alongside the neighbor ids, so both a
	// new edge and a re-weighted one reset it.
	ru.sorted.Store(nil)
	rv.sorted.Store(nil)
	ru.adj[v] += w
	rv.adj[u] += w
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
	if _, ok := g.nodes[u]; !ok {
		return fmt.Errorf("set edge {%d,%d}: endpoint %d: %w", u, v, u, ErrNodeNotFound)
	}
	if _, ok := g.nodes[v]; !ok {
		return fmt.Errorf("set edge {%d,%d}: endpoint %d: %w", u, v, v, ErrNodeNotFound)
	}
	ru, rv := g.mutable(u), g.mutable(v)
	old, exists := ru.adj[v]
	if !exists {
		g.edgeCount++
	}
	ru.sorted.Store(nil)
	rv.sorted.Store(nil)
	ru.adj[v] = w
	rv.adj[u] = w
	g.totalEdgeWeight += w - old
	return nil
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	rec, ok := g.nodes[u]
	if !ok {
		return 0, false
	}
	w, ok := rec.adj[v]
	return w, ok
}

// RemoveEdge deletes edge {u, v} if present, reporting whether it existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	rec, ok := g.nodes[u]
	if !ok {
		return false
	}
	w, ok := rec.adj[v]
	if !ok {
		return false
	}
	ru, rv := g.mutable(u), g.mutable(v)
	delete(ru.adj, v)
	delete(rv.adj, u)
	ru.sorted.Store(nil)
	rv.sorted.Store(nil)
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
	for nb, w := range rec.adj {
		rnb := g.mutable(nb)
		delete(rnb.adj, id)
		rnb.sorted.Store(nil)
		g.edgeCount--
		g.totalEdgeWeight -= w
	}
	delete(g.nodes, id)
	g.nodeList.Store(nil)
	return true
}

// sortedNodes returns the latched ascending node-id list, building it on
// first use. The returned slice is shared: callers inside the package must
// not modify it (Nodes copies for external callers).
func (g *Graph) sortedNodes() []NodeID {
	if p := g.nodeList.Load(); p != nil {
		return *p
	}
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	g.nodeList.Store(&ids)
	return ids
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.nodes))
	copy(ids, g.sortedNodes())
	return ids
}

// Neighbors returns the neighbors of id in ascending order. The result is a
// fresh copy of the latched adjacency list, so repeated calls cost O(d)
// rather than O(d log d).
func (g *Graph) Neighbors(id NodeID) []NodeID {
	rec, ok := g.nodes[id]
	if !ok {
		return nil
	}
	nbs := make([]NodeID, len(rec.adj))
	copy(nbs, rec.sortedAdj())
	return nbs
}

// Degree returns the number of edges incident to id.
func (g *Graph) Degree(id NodeID) int {
	rec, ok := g.nodes[id]
	if !ok {
		return 0
	}
	return len(rec.adj)
}

// WeightedDegree returns the sum of weights of edges incident to id
// (the node's volume in spectral terminology). Summation follows ascending
// neighbor order so results are bitwise deterministic across runs (float
// addition is not associative; map iteration order is random).
func (g *Graph) WeightedDegree(id NodeID) float64 {
	rec, ok := g.nodes[id]
	if !ok {
		return 0
	}
	var sum float64
	av := rec.adjView()
	for i := range av.ids {
		sum += av.w[i]
	}
	return sum
}

// Edges returns every undirected edge exactly once, sorted by (U, V). The
// list is assembled from the latched node and adjacency orders, so no sort
// runs per call.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edgeCount)
	for _, u := range g.sortedNodes() {
		av := g.nodes[u].adjView()
		for i, v := range av.ids {
			if u < v {
				es = append(es, Edge{U: u, V: v, Weight: av.w[i]})
			}
		}
	}
	return es
}

// AppendEdgeWeights appends the weight of every distinct undirected edge to
// dst once, in unspecified order, and returns the extended slice. It exists
// for order-insensitive aggregations (quantiles, totals) that should not pay
// Edges()'s sort and per-edge struct materialisation.
func (g *Graph) AppendEdgeWeights(dst []float64) []float64 {
	if cap(dst)-len(dst) < g.edgeCount {
		grown := make([]float64, len(dst), len(dst)+g.edgeCount)
		copy(grown, dst)
		dst = grown
	}
	for u, rec := range g.nodes {
		for v, w := range rec.adj {
			if u < v {
				dst = append(dst, w)
			}
		}
	}
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

// Clone returns a semantically deep copy of g in O(nodes) time: the node
// table is copied but the per-node records are shared copy-on-write, so the
// adjacency maps are only duplicated — one node at a time — when either
// graph later mutates them. Clone counts as a read under the concurrency
// contract: concurrent Clones (and concurrent readers) of the same graph are
// safe once mutation has stopped; the shared marks it plants are atomic.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:           maps.Clone(g.nodes),
		edgeCount:       g.edgeCount,
		totalEdgeWeight: g.totalEdgeWeight,
	}
	for _, rec := range g.nodes {
		rec.shared.Store(true)
	}
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
		if !ok || hrec.weight != rec.weight || len(hrec.adj) != len(rec.adj) {
			return false
		}
		for nb, w := range rec.adj {
			hw, ok := hrec.adj[nb]
			if !ok || hw != w {
				return false
			}
		}
	}
	return true
}

// String summarises the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d, comp: %.3g, comm: %.3g}",
		g.NumNodes(), g.NumEdges(), g.TotalNodeWeight(), g.TotalEdgeWeight())
}
