package lpa

import (
	"fmt"

	"copmecs/internal/graph"
)

// Subgraph is one component's compression outcome.
type Subgraph struct {
	// Graph is the compressed sub-graph (super-node IDs 0..k−1).
	Graph *graph.Graph
	// MembersOf maps each super-node to the original nodes it absorbed.
	MembersOf map[graph.NodeID][]graph.NodeID
	// NodeOf maps each original node to its super-node.
	NodeOf map[graph.NodeID]graph.NodeID
	// Labels is the raw label assignment from propagation (diagnostics).
	Labels map[graph.NodeID]int
	// Rounds is the number of propagation rounds the component needed.
	Rounds int
	// Threshold is the coupling threshold used for this component.
	Threshold float64
}

// Result is the outcome of Compress over a whole function data-flow graph.
type Result struct {
	// Subgraphs holds one entry per connected component of the input,
	// ordered by the component's smallest original node ID.
	Subgraphs []Subgraph
	// NodesBefore/NodesAfter and EdgesBefore/EdgesAfter summarise the
	// compression (the paper's Table I columns).
	NodesBefore, NodesAfter int
	EdgesBefore, EdgesAfter int
}

// CompressionRatio returns 1 − after/before in nodes (0 for empty input).
func (r *Result) CompressionRatio() float64 {
	if r.NodesBefore == 0 {
		return 0
	}
	return 1 - float64(r.NodesAfter)/float64(r.NodesBefore)
}

// Compress runs Algorithm 1: splits g into components, propagates labels in
// parallel within each, and contracts directly-connected same-label nodes.
// The input graph must already have unoffloadable functions removed
// (callgraph.Extract does this).
//
// Compress compiles g into its CSR view and runs the index-based kernels
// (CompressCSR), then materialises the classic map-based Result. Callers that
// already hold a compiled view — or that want the array form — should call
// CompressCSR directly and skip the materialisation.
func Compress(g *graph.Graph, opts Options) (*Result, error) {
	cr, err := CompressCSR(g.Compile(), opts)
	if err != nil {
		return nil, err
	}
	return materializeResult(cr)
}

// materializeResult converts the array-form CSR outcome into the map-based
// Result shape, translating dense indices back to original NodeIDs.
func materializeResult(cr *CSRResult) (*Result, error) {
	c := cr.Input
	nc := len(cr.CompOff) - 1
	res := &Result{
		Subgraphs:   make([]Subgraph, nc),
		NodesBefore: cr.NodesBefore,
		NodesAfter:  cr.NodesAfter,
		EdgesBefore: cr.EdgesBefore,
		EdgesAfter:  cr.EdgesAfter,
	}
	for ci := 0; ci < nc; ci++ {
		base, end := cr.CompOff[ci], cr.CompOff[ci+1]
		k := int(end - base)
		sg := graph.New(k)
		sub := Subgraph{
			Graph:     sg,
			MembersOf: make(map[graph.NodeID][]graph.NodeID, k),
			NodeOf:    make(map[graph.NodeID]graph.NodeID),
			Labels:    make(map[graph.NodeID]int),
			Rounds:    cr.Rounds[ci],
			Threshold: cr.Thresholds[ci],
		}
		for s := base; s < end; s++ {
			local := graph.NodeID(s - base)
			if err := sg.AddNode(local, cr.NodeW[s]); err != nil {
				return nil, fmt.Errorf("lpa compress: %w", err)
			}
			members := cr.Members[cr.MemberOff[s]:cr.MemberOff[s+1]]
			ids := make([]graph.NodeID, len(members))
			for i, u := range members {
				id := c.IDOf(u)
				ids[i] = id
				sub.NodeOf[id] = local
				sub.Labels[id] = int(cr.Labels[u])
			}
			sub.MembersOf[local] = ids
		}
		for s := base; s < end; s++ {
			lo, hi := cr.Off[s], cr.Off[s+1]
			for e := lo; e < hi; e++ {
				if t := cr.Tgt[e]; t > s {
					if err := sg.AddEdge(graph.NodeID(s-base), graph.NodeID(t-base), cr.W[e]); err != nil {
						return nil, fmt.Errorf("lpa compress: %w", err)
					}
				}
			}
		}
		res.Subgraphs[ci] = sub
	}
	return res, nil
}
