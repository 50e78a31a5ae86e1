package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Components returns the connected components of g as sorted slices of node
// IDs. Components are ordered by their smallest member so the result is
// deterministic. The paper splits each application's graph into per-component
// sub-graphs before compressing them in parallel (Algorithm 1, lines 2–4).
func (g *Graph) Components() [][]NodeID {
	seen := make(map[NodeID]bool, len(g.recs))
	var comps [][]NodeID
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{start}
		seen[start] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, cur)
			for _, nb := range g.rec(cur).nbr {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraph returns the sub-graph of g induced by keep: the nodes in
// keep plus every edge of g whose endpoints are both kept. Node IDs are
// preserved. Unknown IDs in keep are an error.
func (g *Graph) InducedSubgraph(keep []NodeID) (*Graph, error) {
	sub := New(len(keep))
	for _, id := range keep {
		rec := g.rec(id)
		if rec == nil {
			return nil, fmt.Errorf("induced subgraph: %w: %d", ErrNodeNotFound, id)
		}
		if err := sub.AddNode(id, rec.weight); err != nil {
			return nil, fmt.Errorf("induced subgraph: %w", err)
		}
	}
	for _, id := range keep {
		rec := g.rec(id)
		for i, nb := range rec.nbr {
			if id < nb && sub.HasNode(nb) {
				if err := sub.AddEdge(id, nb, rec.w[i]); err != nil {
					return nil, fmt.Errorf("induced subgraph: %w", err)
				}
			}
		}
	}
	return sub, nil
}

// ContractResult is the output of Contract: the contracted graph plus the
// mapping from each original node to the super-node that absorbed it.
type ContractResult struct {
	Graph *Graph
	// NodeOf maps every original node ID to its super-node ID in Graph.
	NodeOf map[NodeID]NodeID
	// MembersOf maps every super-node ID to the sorted original node IDs it
	// contains.
	MembersOf map[NodeID][]NodeID
}

// Contract merges nodes according to cluster: all nodes sharing a cluster
// value become one super-node whose weight is the sum of member weights
// (total computation is preserved). Edges between members of the same
// cluster disappear; edges across clusters are coalesced by summing, so the
// inter-cluster communication volume is preserved. Every node of g must be
// assigned a cluster. Super-node IDs are 0..k−1 in order of each cluster's
// smallest member, so results are deterministic.
//
// This realises the paper's compression step: "any two nodes which are in
// the same cluster and are connected directly will be merged into one node".
// Contract assumes the caller has already ensured each cluster is internally
// connected (the LPA propagation guarantees this); it merges by cluster
// value regardless.
func (g *Graph) Contract(cluster map[NodeID]int) (*ContractResult, error) {
	if len(cluster) != len(g.recs) {
		return nil, fmt.Errorf("contract: cluster assigns %d of %d nodes", len(cluster), len(g.recs))
	}
	// Group members per cluster value, deterministically.
	members := make(map[int][]NodeID)
	for _, id := range g.Nodes() {
		c, ok := cluster[id]
		if !ok {
			return nil, fmt.Errorf("contract: %w: %d has no cluster", ErrNodeNotFound, id)
		}
		members[c] = append(members[c], id)
	}
	clusterVals := make([]int, 0, len(members))
	for c := range members {
		clusterVals = append(clusterVals, c)
	}
	// Order super-nodes by smallest member (members are already ascending
	// because g.Nodes() is sorted).
	sort.Slice(clusterVals, func(i, j int) bool {
		return members[clusterVals[i]][0] < members[clusterVals[j]][0]
	})

	res := &ContractResult{
		Graph:     New(len(clusterVals)),
		NodeOf:    make(map[NodeID]NodeID, len(g.recs)),
		MembersOf: make(map[NodeID][]NodeID, len(clusterVals)),
	}
	for i, c := range clusterVals {
		super := NodeID(i)
		var weight float64
		for _, id := range members[c] {
			res.NodeOf[id] = super
			w, err := g.NodeWeight(id)
			if err != nil {
				return nil, fmt.Errorf("contract: %w", err)
			}
			weight += w
		}
		res.MembersOf[super] = members[c]
		if err := res.Graph.AddNode(super, weight); err != nil {
			return nil, fmt.Errorf("contract: %w", err)
		}
	}
	for _, e := range g.Edges() {
		su, sv := res.NodeOf[e.U], res.NodeOf[e.V]
		if su == sv {
			continue // intra-cluster communication vanishes after merging
		}
		if err := res.Graph.AddEdge(su, sv, e.Weight); err != nil {
			return nil, fmt.Errorf("contract: %w", err)
		}
	}
	return res, nil
}

// CutWeight returns the total weight of edges with exactly one endpoint in
// side (formula (8) of the paper). Nodes absent from the graph are ignored;
// membership is defined by the set passed in. Edges are accumulated in
// (U, V)-sorted order — the latched node order, then each row — so the float
// sum is bitwise deterministic across runs without materialising an edge
// list per call.
func (g *Graph) CutWeight(side map[NodeID]bool) float64 {
	nodes := g.sortedNodes()
	var cut float64
	if n := len(nodes); n > 0 && nodes[0] >= 0 && int(nodes[n-1]) < 2*n+64 {
		// Dense id space: one flat membership table replaces the two map
		// probes per edge. Entries of side outside the graph are ignored
		// either way; a false entry and an absent one are equivalent.
		in := make([]bool, int(nodes[n-1])+1)
		for id, v := range side {
			if v && id >= 0 && int(id) < len(in) {
				in[id] = true
			}
		}
		for _, u := range nodes {
			rec := g.rec(u)
			su := in[u]
			for i, v := range rec.nbr {
				if u < v && su != in[v] {
					cut += rec.w[i]
				}
			}
		}
		return cut
	}
	for _, u := range nodes {
		rec := g.rec(u)
		su := side[u]
		for i, v := range rec.nbr {
			if u < v && su != side[v] {
				cut += rec.w[i]
			}
		}
	}
	return cut
}

// MaxDegreeNode returns the node with the largest number of incident edges,
// breaking ties toward the smallest ID (the paper's propagation starter:
// "the node which has the maximum out-degree"). ok is false for an empty
// graph.
func (g *Graph) MaxDegreeNode() (id NodeID, ok bool) {
	best, bestDeg := NodeID(0), -1
	for _, n := range g.Nodes() {
		if d := len(g.rec(n).nbr); d > bestDeg {
			best, bestDeg = n, d
		}
	}
	if bestDeg < 0 {
		return 0, false
	}
	return best, true
}

// BFSOrder returns the nodes reachable from start in breadth-first order,
// visiting neighbors in ascending ID order.
func (g *Graph) BFSOrder(start NodeID) ([]NodeID, error) {
	if !g.HasNode(start) {
		return nil, fmt.Errorf("bfs from %d: %w", start, ErrNodeNotFound)
	}
	seen := map[NodeID]bool{start: true}
	order := []NodeID{start}
	for i := 0; i < len(order); i++ {
		for _, nb := range g.rec(order[i]).nbr {
			if !seen[nb] {
				seen[nb] = true
				order = append(order, nb)
			}
		}
	}
	return order, nil
}

// DFSOrder returns the nodes reachable from start in depth-first order,
// visiting neighbors in ascending ID order.
func (g *Graph) DFSOrder(start NodeID) ([]NodeID, error) {
	if !g.HasNode(start) {
		return nil, fmt.Errorf("dfs from %d: %w", start, ErrNodeNotFound)
	}
	seen := make(map[NodeID]bool, len(g.recs))
	var order []NodeID
	var visit func(NodeID)
	visit = func(n NodeID) {
		seen[n] = true
		order = append(order, n)
		for _, nb := range g.rec(n).nbr {
			if !seen[nb] {
				visit(nb)
			}
		}
	}
	visit(start)
	return order, nil
}
